"""Survey capacity planner: acquisition, processing, storage, scan, transfer,
load, and hardware-timeline arithmetic.

All quantities are decimal (1 TB = 1e12 bytes, 1 MB/s = 1e6 bytes/s); the
survey numbers only reconcile in decimal units. Every function here is pure:
identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ValidationError

DAY_SECONDS = 86400.0

#: Moore's-law CPU doubling period (years): a 16x speedup over six years.
MOORE_DOUBLING_YEARS = 1.5

#: Disk capacity doubling period (years).
DISK_CAPACITY_DOUBLING_YEARS = 1.0

#: Disk sequential speed grows ~ sqrt(capacity).
DISK_SPEED_CAPACITY_EXPONENT = 0.5

#: Effective wire bits per payload byte for long-haul links. 8 data bits plus
#: framing/protocol overhead; with this factor an OC-3 at 65% utilization
#: delivers ~10 MB/s of payload, which is the rate the transfer arithmetic
#: is built on.
WIRE_BITS_PER_BYTE = 10.0


def _require_positive(obj, *names):
    for name in names:
        value = getattr(obj, name)
        if not 0 < value < math.inf:
            raise ValidationError(f"{type(obj).__name__}.{name} must be finite and > 0, "
                                  f"got {value!r}")


def _require_nonnegative(obj, *names):
    for name in names:
        value = getattr(obj, name)
        if not 0 <= value < math.inf:
            raise ValidationError(f"{type(obj).__name__}.{name} must be finite and >= 0, "
                                  f"got {value!r}")


# ---------------------------------------------------------------------------
# specs (inputs)

@dataclass(frozen=True)
class AcquisitionSpec:
    """Imaging survey parameters: whole-sky pixel count, camera, and cadence."""

    sky_pixels: float = 10e12
    bytes_per_pixel: float = 2.0
    passes_per_year: float = 50.0
    camera_gigapixels: float = 5.0
    exposure_seconds: float = 60.0
    night_hours: float = 8.0

    def __post_init__(self):
        _require_positive(self, *(f.name for f in fields(self)))


@dataclass(frozen=True)
class PipelineSpec:
    """Processing-farm sizing: stream rate vs per-CPU throughput, optionally
    projected ahead under Moore's law."""

    stream_rate: float
    per_cpu_rate: float = 0.6e6
    years_ahead: float = 0.0
    moore_doubling_period: float = MOORE_DOUBLING_YEARS

    def __post_init__(self):
        _require_positive(self, "per_cpu_rate", "moore_doubling_period")
        _require_nonnegative(self, "stream_rate", "years_ahead")


@dataclass(frozen=True)
class StorageSpec:
    """Catalog/index/master/coadd sizing inputs."""

    objects_per_pass: float = 2e9
    passes: float = 50.0
    bytes_per_object: float = 1e3
    index_overhead_fraction: float = 0.2
    master_reduction_factor: float = 30.0
    sky_pixels: float = 10e12
    coadd_bytes_per_pixel: float = 3.0
    variable_pixel_fraction: float = 0.01

    def __post_init__(self):
        _require_positive(self, "objects_per_pass", "passes", "bytes_per_object",
                          "sky_pixels", "coadd_bytes_per_pixel")
        _require_nonnegative(self, "index_overhead_fraction", "variable_pixel_fraction")
        if not self.master_reduction_factor > 1:
            raise ValidationError("StorageSpec.master_reduction_factor must be > 1")


@dataclass(frozen=True)
class ScanSpec:
    """Sequential-scan sizing: database size vs aggregate disk bandwidth."""

    db_bytes: float
    disk_count: int = 30
    per_disk_rate: float = 150e6
    per_server_disk_capacity: int = 30

    def __post_init__(self):
        if self.disk_count < 1:
            raise ValidationError("ScanSpec.disk_count must be >= 1")
        _require_positive(self, "per_disk_rate", "per_server_disk_capacity")
        _require_nonnegative(self, "db_bytes")


@dataclass(frozen=True)
class TransferSpec:
    """Replication sizing: long-haul link vs shipped transfer bricks."""

    total_bytes: float
    link_rate: float = 155e6           # bits/second (OC-3)
    link_utilization: float = 0.65
    brick_capacity: float = 32e12
    brick_shipping_days: float = 2.0
    wire_bits_per_byte: float = WIRE_BITS_PER_BYTE

    def __post_init__(self):
        if not 0 < self.link_utilization <= 1:
            raise ValidationError("TransferSpec.link_utilization must be in (0, 1]")
        _require_positive(self, "link_rate", "brick_capacity",
                          "brick_shipping_days", "wire_bits_per_byte")
        _require_nonnegative(self, "total_bytes")


# ---------------------------------------------------------------------------
# plans (outputs)

@dataclass(frozen=True)
class AcquisitionPlan:
    bytes_per_pass: float
    bytes_per_year: float
    bytes_per_night: float
    stream_rate: float


@dataclass(frozen=True)
class StoragePlan:
    catalog_bytes: float
    indexed_bytes: float
    master_bytes: float
    coadd_bytes: float


@dataclass(frozen=True)
class ScanEstimate:
    aggregate_rate: float
    scan_seconds: float
    servers_needed: int


@dataclass(frozen=True)
class TransferPlan:
    network_days: float
    effective_net_rate: float
    brick_count: int
    sneakernet_days: float


@dataclass(frozen=True)
class LoadPlan:
    rate_total: float
    rate_per_brick: float


@dataclass(frozen=True)
class TimelineReport:
    year: int
    cpu_speed_factor: float
    pipeline_cpu_factor: float
    analysis_cpu_factor: float
    disk_count_factor: float
    stored_bytes_factor: float


# ---------------------------------------------------------------------------
# operations

def plan_acquisition(spec: AcquisitionSpec) -> AcquisitionPlan:
    """Raw imaging volumes and the nightly stream rate."""
    bytes_per_pass = spec.sky_pixels * spec.bytes_per_pixel
    bytes_per_year = bytes_per_pass * spec.passes_per_year
    images_per_night = spec.night_hours * 3600.0 / spec.exposure_seconds
    bytes_per_night = images_per_night * spec.camera_gigapixels * 1e9 * spec.bytes_per_pixel
    stream_rate = bytes_per_night / (spec.night_hours * 3600.0)
    return AcquisitionPlan(bytes_per_pass, bytes_per_year, bytes_per_night, stream_rate)


def plan_pipeline(spec: PipelineSpec) -> int:
    """CPUs needed to keep up with the stream, after Moore's-law speedup."""
    if spec.stream_rate == 0:
        return 0
    speedup = 2.0 ** (spec.years_ahead / spec.moore_doubling_period)
    return math.ceil(spec.stream_rate / (spec.per_cpu_rate * speedup))


def plan_storage(spec: StorageSpec) -> StoragePlan:
    """Catalog, indexed, master-summary, and coadd storage sizes."""
    catalog = spec.objects_per_pass * spec.passes * spec.bytes_per_object
    indexed = catalog * (1.0 + spec.index_overhead_fraction)
    master = catalog / spec.master_reduction_factor
    coadd = (spec.sky_pixels * spec.coadd_bytes_per_pixel
             * (1.0 + spec.variable_pixel_fraction * spec.passes))
    return StoragePlan(catalog, indexed, master, coadd)


def plan_scan(spec: ScanSpec) -> ScanEstimate:
    """Full sequential-scan time and server count at a given disk farm size."""
    aggregate = spec.disk_count * spec.per_disk_rate
    scan_seconds = spec.db_bytes / aggregate
    servers = math.ceil(spec.disk_count / spec.per_server_disk_capacity)
    return ScanEstimate(aggregate, scan_seconds, servers)


def plan_transfer(spec: TransferSpec) -> TransferPlan:
    """Network replication time vs shipping transfer bricks."""
    effective = spec.link_rate * spec.link_utilization / spec.wire_bits_per_byte
    if spec.total_bytes == 0:
        return TransferPlan(0.0, effective, 0, 0.0)
    network_days = spec.total_bytes / effective / DAY_SECONDS
    brick_count = math.ceil(spec.total_bytes / spec.brick_capacity)
    return TransferPlan(network_days, effective, brick_count, spec.brick_shipping_days)


def plan_load(indexed_bytes: float, window_days: float, bricks: int = 1) -> LoadPlan:
    """Rate needed to (re)load the full database within a window, split over
    parallel load bricks."""
    if not 0 < window_days < math.inf:
        raise ValidationError(f"window_days must be finite and > 0, got {window_days!r}")
    if bricks < 1:
        raise ValidationError("bricks must be >= 1")
    if not 0 <= indexed_bytes < math.inf:
        raise ValidationError(f"indexed_bytes must be finite and >= 0, got {indexed_bytes!r}")
    rate_total = indexed_bytes / (window_days * DAY_SECONDS)
    return LoadPlan(rate_total, rate_total / bricks)


def plan_peak_load(stream_rate: float, catalog_fraction: float = 0.12) -> float:
    """Peak catalog-load rate as a fraction of the raw imaging stream."""
    for name, value in (("stream_rate", stream_rate), ("catalog_fraction", catalog_fraction)):
        if not 0 <= value < math.inf:
            raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
    return stream_rate * catalog_fraction


def plan_hardware_timeline(year: int,
                           moore_doubling: float = MOORE_DOUBLING_YEARS,
                           disk_rate_growth_exponent: float = DISK_SPEED_CAPACITY_EXPONENT,
                           ) -> TimelineReport:
    """Year-over-year hardware factors at constant data rate.

    Data accumulates linearly; CPU speed follows Moore's law; disk capacity
    doubles yearly with sequential speed ~ capacity**exponent. The analysis
    and disk-bandwidth load scale with the data accumulated in prior years
    (floored at one year's worth).
    """
    if year < 1:
        raise ValidationError("year must be >= 1")
    if not 0 < moore_doubling < math.inf:
        raise ValidationError(f"moore_doubling must be finite and > 0, got {moore_doubling!r}")
    if not math.isfinite(disk_rate_growth_exponent):
        raise ValidationError("disk_rate_growth_exponent must be finite, "
                              f"got {disk_rate_growth_exponent!r}")
    elapsed = year - 1
    cpu_speed = 2.0 ** (elapsed / moore_doubling)
    accumulated = float(max(1, elapsed))
    disk_speed = 2.0 ** ((elapsed / DISK_CAPACITY_DOUBLING_YEARS) * disk_rate_growth_exponent)
    return TimelineReport(
        year=year,
        cpu_speed_factor=cpu_speed,
        pipeline_cpu_factor=1.0 / cpu_speed,
        analysis_cpu_factor=accumulated / cpu_speed,
        disk_count_factor=accumulated / disk_speed,
        stored_bytes_factor=float(year),
    )
