"""The peak resident set of the running process, for tests that measure
a fresh interpreter's memory.

``resource.getrusage(...).ru_maxrss`` survives fork + exec: a child
spawned by a 1.5 GB test process reported 1553 MB while its own
``VmHWM`` read 13.5 MB.  ``VmHWM`` is the high-water mark of this
process image alone.  ``PEAK_MB`` is source to prepend to a child
script; it defines ``peak_mb()``.
"""

PEAK_MB = '''
def peak_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")
'''
