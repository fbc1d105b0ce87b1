"""Performance modeling: Table 6 cluster specs, the alpha-beta ring
all-reduce cost model, strong-scaling studies and host measurements."""

from .clusters import ClusterSpec, AZURE_NDV2, BRIDGES2_CPU
from .model import (ring_allreduce_time, step_time, epoch_time,
                    ScalingPoint, strong_scaling_study,
                    compute_time_at_resolution)
from .measure import EpochTimePoint, measure_epoch_time, measure_sample_time

__all__ = [
    "ClusterSpec", "AZURE_NDV2", "BRIDGES2_CPU",
    "ring_allreduce_time", "step_time", "epoch_time",
    "ScalingPoint", "strong_scaling_study", "compute_time_at_resolution",
    "EpochTimePoint", "measure_epoch_time", "measure_sample_time",
]
