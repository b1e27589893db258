"""Command-line entry point: one subcommand per survey capability.

Machine output (CSV) goes to stdout; diagnostics go to stderr. Exit codes:
0 success, 2 validation error, 3 I/O error.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import csvio, mining, planner, skygen, sphere, store, timedomain, units
from .errors import EXIT_IO, EXIT_OK, EXIT_VALIDATION, StoreIOError, ValidationError


def _echo(blocks):
    """Print a table from `csvio.blocks`, one echo per block. No table holds
    an escape code, so click's ANSI strip (a regex pass over every block when
    stdout is not a terminal) is skipped."""
    for block in blocks:
        click.echo(block, color=True)


def _echo_pairs(pairs, fmt):
    if fmt == "table":
        width = max(len(k) for k, _ in pairs)
        _echo(csvio.blocks(None, f"%-{width}s  %s", pairs))
    elif fmt == "json":
        click.echo(json.dumps(dict(pairs), indent=2))
    else:
        _echo(csvio.blocks("key,value", "%s,%s", pairs))


format_option = click.option("--format", "fmt", default="csv",
                             type=click.Choice(["csv", "table", "json"]),
                             help="Output format.")


@click.group()
def cli():
    """Sky-survey catalog engine, mining toolkit, and capacity planner."""


# ---------------------------------------------------------------------------
# plan

@cli.group()
def plan():
    """Capacity-planning arithmetic: acquisition, storage, scan, transfer."""


@plan.command("acquisition")
@click.option("--sky-pixels", default=10e12, show_default=True)
@click.option("--bytes-per-pixel", default=2.0, show_default=True)
@click.option("--passes", default=50.0, show_default=True)
@click.option("--camera-gpix", default=5.0, show_default=True)
@click.option("--exposure", default=60.0, show_default=True, help="Exposure seconds.")
@click.option("--night-hours", default=8.0, show_default=True)
@format_option
def plan_acquisition_cmd(sky_pixels, bytes_per_pixel, passes, camera_gpix,
                         exposure, night_hours, fmt):
    """Raw imaging volume and stream-rate projections."""
    spec = planner.AcquisitionSpec(sky_pixels, bytes_per_pixel, passes,
                                   camera_gpix, exposure, night_hours)
    p = planner.plan_acquisition(spec)
    _echo_pairs([
        ("bytes_per_pass", p.bytes_per_pass),
        ("bytes_per_year", p.bytes_per_year),
        ("bytes_per_night", p.bytes_per_night),
        ("stream_rate_bytes_per_s", p.stream_rate),
        ("bytes_per_pass_pretty", units.fmt_bytes(p.bytes_per_pass)),
        ("bytes_per_year_pretty", units.fmt_bytes(p.bytes_per_year)),
        ("stream_rate_pretty", units.fmt_bytes(p.stream_rate) + "/s"),
    ], fmt)


@plan.command("pipeline")
@click.option("--stream-rate", default="170MB/s", show_default=True)
@click.option("--per-cpu-rate", default="0.6MB/s", show_default=True)
@click.option("--years-ahead", default=0.0, show_default=True)
@click.option("--doubling", default=planner.MOORE_DOUBLING_YEARS, show_default=True)
@format_option
def plan_pipeline_cmd(stream_rate, per_cpu_rate, years_ahead, doubling, fmt):
    """Processor count needed to keep up with the stream."""
    spec = planner.PipelineSpec(units.parse_rate(stream_rate),
                                units.parse_rate(per_cpu_rate),
                                years_ahead, doubling)
    _echo_pairs([("cpus", planner.plan_pipeline(spec))], fmt)


@plan.command("storage")
@click.option("--objects-per-pass", default=2e9, show_default=True)
@click.option("--passes", default=50.0, show_default=True)
@click.option("--bytes-per-object", default=1000.0, show_default=True)
@click.option("--index-overhead", default=0.2, show_default=True)
@click.option("--master-reduction", default=30.0, show_default=True)
@click.option("--sky-pixels", default=10e12, show_default=True)
@click.option("--coadd-bytes-per-pixel", default=3.0, show_default=True)
@click.option("--variable-pixel-fraction", default=0.01, show_default=True)
@format_option
def plan_storage_cmd(objects_per_pass, passes, bytes_per_object, index_overhead,
                     master_reduction, sky_pixels, coadd_bytes_per_pixel,
                     variable_pixel_fraction, fmt):
    """Catalog, index, master-summary, and coadd sizing."""
    spec = planner.StorageSpec(objects_per_pass, passes, bytes_per_object,
                               index_overhead, master_reduction, sky_pixels,
                               coadd_bytes_per_pixel, variable_pixel_fraction)
    p = planner.plan_storage(spec)
    _echo_pairs([
        ("catalog_bytes", p.catalog_bytes),
        ("indexed_bytes", p.indexed_bytes),
        ("master_bytes", p.master_bytes),
        ("coadd_bytes", p.coadd_bytes),
        ("catalog_pretty", units.fmt_bytes(p.catalog_bytes)),
        ("indexed_pretty", units.fmt_bytes(p.indexed_bytes)),
        ("master_pretty", units.fmt_bytes(p.master_bytes)),
        ("coadd_pretty", units.fmt_bytes(p.coadd_bytes)),
    ], fmt)


@plan.command("scan")
@click.option("--db", default="120TB", show_default=True)
@click.option("--disks", default=30, show_default=True)
@click.option("--disk-rate", default="150MB/s", show_default=True)
@click.option("--disks-per-server", default=30, show_default=True)
@format_option
def plan_scan_cmd(db, disks, disk_rate, disks_per_server, fmt):
    """Sequential-scan time and server count."""
    spec = planner.ScanSpec(units.parse_bytes(db), disks,
                            units.parse_rate(disk_rate), disks_per_server)
    p = planner.plan_scan(spec)
    _echo_pairs([
        ("aggregate_rate_bytes_per_s", p.aggregate_rate),
        ("scan_seconds", p.scan_seconds),
        ("scan_hours", p.scan_seconds / 3600.0),
        ("servers_needed", p.servers_needed),
    ], fmt)


@plan.command("transfer")
@click.option("--total", default="165TB", show_default=True)
@click.option("--link-rate", default="155Mbit/s", show_default=True)
@click.option("--utilization", default=0.65, show_default=True)
@click.option("--brick-capacity", default="32TB", show_default=True)
@click.option("--shipping-days", default=2.0, show_default=True)
@format_option
def plan_transfer_cmd(total, link_rate, utilization, brick_capacity,
                      shipping_days, fmt):
    """Network vs sneakernet replication."""
    spec = planner.TransferSpec(units.parse_bytes(total),
                                units.parse_bits_per_second(link_rate),
                                utilization, units.parse_bytes(brick_capacity),
                                shipping_days)
    p = planner.plan_transfer(spec)
    _echo_pairs([
        ("network_days", p.network_days),
        ("effective_net_rate_bytes_per_s", p.effective_net_rate),
        ("brick_count", p.brick_count),
        ("sneakernet_days", p.sneakernet_days),
    ], fmt)


@plan.command("load")
@click.option("--db", default="120TB", show_default=True)
@click.option("--window-days", default=14.0, show_default=True)
@click.option("--bricks", default=8, show_default=True)
@click.option("--stream-rate", default="170MB/s", show_default=True)
@click.option("--catalog-fraction", default=0.12, show_default=True)
@format_option
def plan_load_cmd(db, window_days, bricks, stream_rate, catalog_fraction, fmt):
    """Database (re)load rates, total and per brick, plus the peak load rate
    implied by the live stream."""
    p = planner.plan_load(units.parse_bytes(db), window_days, bricks)
    peak = planner.plan_peak_load(units.parse_rate(stream_rate), catalog_fraction)
    _echo_pairs([
        ("rate_total_bytes_per_s", p.rate_total),
        ("rate_per_brick_bytes_per_s", p.rate_per_brick),
        ("peak_load_bytes_per_s", peak),
    ], fmt)


@plan.command("timeline")
@click.option("--year", default=1, show_default=True)
@click.option("--doubling", default=planner.MOORE_DOUBLING_YEARS, show_default=True)
@click.option("--disk-exponent", default=planner.DISK_SPEED_CAPACITY_EXPONENT,
              show_default=True)
@format_option
def plan_timeline_cmd(year, doubling, disk_exponent, fmt):
    """Hardware factors for a given project year."""
    r = planner.plan_hardware_timeline(year, doubling, disk_exponent)
    _echo_pairs([
        ("year", r.year),
        ("cpu_speed_factor", r.cpu_speed_factor),
        ("pipeline_cpu_factor", r.pipeline_cpu_factor),
        ("analysis_cpu_factor", r.analysis_cpu_factor),
        ("disk_count_factor", r.disk_count_factor),
        ("stored_bytes_factor", r.stored_bytes_factor),
    ], fmt)


# ---------------------------------------------------------------------------
# survey generation and store lifecycle

@cli.command("gen")
@click.option("--objects", required=True, type=int)
@click.option("--passes", required=True, type=int)
@click.option("--seed", required=True, type=click.IntRange(min=0))
@click.option("--cadence-days", default=1.0, show_default=True)
@click.option("--flux-sigma", default=0.01, show_default=True)
@click.option("--periodic-frac", default=0.0, show_default=True)
@click.option("--transient-frac", default=0.0, show_default=True)
@click.option("--mover-frac", default=0.0, show_default=True)
@click.option("--pos-noise", default="0s", show_default=True,
              help="Positional noise, arcsec suffix.")
@click.option("--partitions", default=4, show_default=True)
@click.option("--out", required=True, type=click.Path())
def gen_cmd(objects, passes, seed, cadence_days, flux_sigma, periodic_frac,
            transient_frac, mover_frac, pos_noise, partitions, out):
    """Generate a deterministic synthetic survey into a detection store."""
    config = skygen.SurveyConfig(
        n_objects=objects, passes=passes, seed=seed, cadence_days=cadence_days,
        flux_sigma_fraction=flux_sigma, periodic_fraction=periodic_frac,
        transient_fraction=transient_frac, mover_fraction=mover_frac,
        position_noise_arcsec=units.parse_angle_deg(pos_noise) * sphere.ARCSEC_PER_DEG)
    truth, detections, _, manifest = skygen.write_survey(config, out, partitions)
    click.echo(f"objects={len(truth)} detections={len(detections)} "
               f"partitions={len(manifest.partitions)}", err=True)


@cli.command("ingest")
@click.option("--input", "input_csv", required=True, type=click.Path(exists=True),
              help="Detection CSV with the store's column header.")
@click.option("--partitions", default=4, show_default=True)
@click.option("--out", required=True, type=click.Path())
def ingest_cmd(input_csv, partitions, out):
    """Load a detection CSV into a partitioned binary store."""
    records = store.records_from_csv(Path(input_csv).read_text())
    t0 = time.perf_counter()
    manifest = store.ingest_detections(records, partitions, out)
    wall = time.perf_counter() - t0
    rate = manifest.total_records * store.RECORD_SIZE / wall if wall > 0 else 0.0
    click.echo(f"records={manifest.total_records} "
               f"load_rate={units.fmt_bytes(rate)}/s", err=True)


@cli.command("index")
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True))
@click.option("--zone-height", default="1d", show_default=True)
def index_cmd(store_dir, zone_height):
    """Assign declination zones and write index summaries."""
    manifest = store.build_indexes(store_dir, units.parse_angle_deg(zone_height))
    data_bytes = manifest.total_records * store.RECORD_SIZE
    overhead = len(manifest.to_json()) / data_bytes if data_bytes else 0.0  # the file's bytes
    click.echo(f"zones_height_deg={manifest.zone_height_deg} "
               f"index_overhead={overhead:.4f}", err=True)


@cli.command("master")
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True))
@click.option("--radius", default="1s", show_default=True)
def master_cmd(store_dir, radius):
    """Cross-match detections into the master/summary catalog."""
    masters, assignment = store.build_master(
        store_dir, units.parse_angle_deg(radius) * sphere.ARCSEC_PER_DEG)
    total = len(assignment)
    ratio = total / len(masters) if len(masters) else 0.0
    click.echo(f"masters={len(masters)} detections={total} reduction={ratio:.2f}",
               err=True)


# ---------------------------------------------------------------------------
# queries

def _parse_cone(text: str) -> sphere.Cone:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError("cone must be 'RA,DEC,RADIUS' with unit suffixes")
    ra, dec, radius = (units.parse_angle_deg(p) for p in parts)
    return sphere.cone_from_radec(ra, dec, radius)


@cli.command("query")
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True))
@click.option("--where", default="true", show_default=True)
@click.option("--cone", "cone_text", default=None, help="RA,DEC,RADIUS e.g. 10d,20d,5d")
@click.option("--polygon", "polygon_file", default=None, type=click.Path(exists=True))
@click.option("--workers", default=1, show_default=True)
def query_cmd(store_dir, where, cone_text, polygon_file, workers):
    """Predicate/region scan over the store; CSV records on stdout."""
    region = None
    if cone_text and polygon_file:
        raise ValidationError("give either --cone or --polygon, not both")
    if cone_text:
        region = _parse_cone(cone_text)
    elif polygon_file:
        region = sphere.load_polygon(polygon_file)
    records, stats = store.scan(store_dir, where, region=region, workers=workers)
    _echo(store.records_to_csv_lines(records))
    click.echo(f"scanned={stats.records_scanned} matched={stats.records_matched} "
               f"rate={units.fmt_bytes(stats.effective_rate)}/s "
               f"workers={stats.workers}", err=True)


@cli.command("neighbors")
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True))
@click.option("--theta", default="60s", show_default=True)
@click.option("--use-masters/--use-detections", default=True, show_default=True)
def neighbors_cmd(store_dir, theta, use_masters):
    """Fixed-radius symmetric pair table over master (or detection) positions."""
    if use_masters:
        masters = store.read_masters(store_dir)
        ids, ra, dec = masters["master_id"], masters["ra"], masters["dec"]
    else:
        recs = store.read_all(store_dir)
        ids, ra, dec = recs["det_id"], recs["ra"], recs["dec"]
    table, evals = sphere.neighbors_join(
        ids, ra, dec, units.parse_angle_deg(theta) * sphere.ARCSEC_PER_DEG)
    _echo(csvio.blocks("id_a,id_b,separation_arcsec", "%d,%d,%.6f", table))
    click.echo(f"pairs={len(table)} distance_evaluations={evals}", err=True)


def _chains(store_dir, master_id=None):
    """The store's records (only master `master_id`'s, when given) grouped
    into chains by `timedomain.group_chains`. A store with records but no
    master assignments is refused; a store with no records has no chains."""
    recs = store.read_all(store_dir)
    if len(recs) and not np.any(recs["master_id"] > 0):
        raise ValidationError("store has no master assignments; run `master` first")
    if master_id is not None:
        recs = recs.take(np.flatnonzero(recs["master_id"] == master_id))
        if not len(recs):
            raise ValidationError(f"master {master_id} not found")
    return timedomain.group_chains(recs)


@cli.command("lc")
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True))
@click.option("--master", "master_id", default=None, type=int)
@click.option("--limit", default=None, type=click.IntRange(min=1))
@click.option("--fmin", default=0.01, show_default=True)
@click.option("--fmax", default=2.0, show_default=True)
@click.option("--steps", default=4000, show_default=True)
def lc_cmd(store_dir, master_id, limit, fmin, fmax, steps):
    """Light-curve fits per master chain; CSV on stdout."""
    recs, starts = _chains(store_dir, master_id)
    if limit is not None and limit < len(starts):
        recs, starts = recs[:starts[limit]], starts[:limit]
    fits = timedomain.fit_lightcurves(recs, starts, (fmin, fmax, steps))
    # `%` on each searched chain's frequency, so exact; empty where no search ran
    searched = ~np.isnan(fits.best_frequency)
    cells = np.char.mod("%.6f", fits.best_frequency[searched])
    freq = np.zeros(len(fits), cells.dtype)
    freq[searched] = cells
    rows = np.rec.fromarrays(
        (recs["master_id"][starts], np.diff(starts, append=len(recs)), fits.chi2_const, fits.dof,
         fits.mean_flux, freq, fits.periodic_power, fits.amplitude_fraction,
         fits.classification), names="master_id,n,chi2_const,dof,mean_flux,best_frequency,"
                                     "periodic_power,amplitude_fraction,classification")
    _echo(csvio.blocks(",".join(rows.dtype.names), "%d,%d,%.4f,%d,%.4f,%s,%.4f,%.4f,%s", rows))


@cli.command("classify")
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True))
@click.option("--span-days", default=None, type=float,
              help="Survey span; enables burst/transient detection.")
@click.option("--fmin", default=0.01, show_default=True)
@click.option("--fmax", default=2.0, show_default=True)
@click.option("--steps", default=4000, show_default=True)
def classify_cmd(store_dir, span_days, fmin, fmax, steps):
    """Classify every master chain; CSV master_id,classification."""
    recs, starts = _chains(store_dir)
    classes = timedomain.classify_chains(recs, starts, (fmin, fmax, steps), span_days)
    rows = np.rec.fromarrays((recs["master_id"][starts], np.diff(starts, append=len(recs)),
                              classes), names="master_id,n_detections,classification")
    _echo(csvio.blocks(",".join(rows.dtype.names), "%d,%d,%s", rows))


@cli.command("trigger")
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True),
              help="Store holding the predicted master catalog.")
@click.option("--stream", "stream_dir", required=True, type=click.Path(exists=True),
              help="Store holding the incoming detection stream.")
@click.option("--radius", default="2s", show_default=True)
@click.option("--k-sigma", default=5.0, show_default=True)
def trigger_cmd(store_dir, stream_dir, radius, k_sigma):
    """Stream detections against the master catalog; alert CSV on stdout."""
    masters = store.read_masters(store_dir)
    stream = store.read_all(stream_dir)
    stream = stream.take(np.lexsort((stream["zone"], stream["mjd"])))
    alerts = timedomain.run_trigger(
        stream, masters, units.parse_angle_deg(radius) * sphere.ARCSEC_PER_DEG,
        k_sigma)
    _echo(csvio.blocks(",".join(alerts.dtype.names), "%s,%.6f,%.9f,%.9f,%.6f,%.3f,%d", alerts))
    click.echo(f"alerts={len(alerts)} stream={len(stream)}", err=True)


@cli.command("movers")
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True))
@click.option("--rate-max", default=0.5, show_default=True, help="deg/day")
@click.option("--residual-max", default="5s", show_default=True)
@click.option("--min-length", default=3, show_default=True)
def movers_cmd(store_dir, rate_max, residual_max, min_length):
    """Link single-detection (orphan) chains into moving-object tracks."""
    recs = store.read_all(store_dir)
    masters = store.read_masters(store_dir)
    singles = masters["master_id"][masters["n_detections"] == 1]
    orphan_mask = np.isin(recs["master_id"], singles)
    tracks = timedomain.link_movers(
        recs.take(np.flatnonzero(orphan_mask)), rate_max,
        units.parse_angle_deg(residual_max) * sphere.ARCSEC_PER_DEG, min_length)
    rows = [(t.track_id, len(t.det_ids), t.ref_mjd, t.ra, t.dec, t.rate_deg_day,
             t.position_angle_deg, t.rms_arcsec, t.debris_candidate,
             ";".join(map(str, t.det_ids.tolist()))) for t in tracks]
    _echo(csvio.blocks("track_id,n,ref_mjd,ra,dec,rate_deg_day,position_angle_deg,"
                       "rms_arcsec,debris_candidate,det_ids",
                       "%d,%d,%.6f,%.9f,%.9f,%.9f,%.4f,%.6f,%d,%s", rows))
    click.echo(f"tracks={len(tracks)} orphans={int(orphan_mask.sum())}", err=True)


@cli.command("corr")
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True))
@click.option("--bins-deg", default="0.5,5,5", show_default=True,
              help="lo,hi,n[,log]")
@click.option("--randoms", default=2000, show_default=True, type=click.IntRange(min=2))
@click.option("--seed", required=True, type=click.IntRange(min=0))
@click.option("--use-masters/--use-detections", default=True, show_default=True)
def corr_cmd(store_dir, bins_deg, randoms, seed, use_masters):
    """Two-point angular correlation (Landy-Szalay) of catalog positions."""
    parts = bins_deg.split(",")
    if len(parts) not in (3, 4):
        raise ValidationError("--bins-deg must be lo,hi,n[,log]")
    try:
        lo, hi, nbins = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"--bins-deg must be lo,hi,n[,log], got {bins_deg!r}") from None
    if nbins < 1:
        raise ValidationError(f"--bins-deg needs at least one bin, got {bins_deg!r}")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValidationError(f"--bins-deg needs finite lo < hi, got {bins_deg!r}")
    log = len(parts) == 4
    if log and parts[3] != "log":
        raise ValidationError(f"--bins-deg scale must be 'log' if given, got {bins_deg!r}")
    if log and lo <= 0:
        raise ValidationError(f"--bins-deg log bins need lo > 0, got {bins_deg!r}")
    if log:
        edges = np.radians(np.logspace(np.log10(lo), np.log10(hi), nbins + 1))
    else:
        edges = np.radians(np.linspace(lo, hi, nbins + 1))
    if use_masters:
        masters = store.read_masters(store_dir)
        unit = sphere.radec_to_unit(masters["ra"], masters["dec"])
    else:
        recs = store.read_all(store_dir)
        unit = sphere.radec_to_unit(recs["ra"], recs["dec"])
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.uniform(-1, 1, randoms)
    phi = rng.uniform(0, 2 * np.pi, randoms)
    rand_unit = np.stack([np.sqrt(1 - z ** 2) * np.cos(phi),
                          np.sqrt(1 - z ** 2) * np.sin(phi), z], axis=1)
    est = mining.correlation_ls(unit, rand_unit, edges)
    rows = np.rec.fromarrays((np.degrees(est.bin_edges_rad[:-1]),
                              np.degrees(est.bin_edges_rad[1:]), est.dd, est.dr, est.rr, est.w,
                              est.err), names="bin_lo_deg,bin_hi_deg,dd,dr,rr,w,err")
    _echo(csvio.blocks(",".join(rows.dtype.names), "%.6f,%.6f,%d,%d,%d,%.6f,%.6f", rows))


@cli.command("em")
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True))
@click.option("--features", default="mean_flux,flux_variance", show_default=True,
              help="Master-table columns used as EM feature dimensions.")
@click.option("--k", default=2, show_default=True)
@click.option("--mode", default="exact", type=click.Choice(["exact", "kd"]),
              show_default=True)
@click.option("--seed", required=True, type=click.IntRange(min=0))
@click.option("--tol", default=1e-6, show_default=True)
@click.option("--max-iter", default=200, show_default=True)
@click.option("--tau", default=1e-4, show_default=True)
@click.option("--scores/--no-scores", default=False, show_default=True,
              help="Emit per-master outlier scores instead of the model JSON.")
def em_cmd(store_dir, features, k, mode, seed, tol, max_iter, tau, scores):
    """Gaussian-mixture EM over master-table features; outliers score low
    likelihood."""
    masters = store.read_masters(store_dir)
    names = [f.strip() for f in features.split(",")]
    for name in names:
        if name not in masters.dtype.names:
            raise ValidationError(f"unknown master feature {name!r}")
    pts = np.stack([masters[name].astype(np.float64) for name in names], axis=1)
    model, stats = mining.em_fit(pts, k, mode=mode, tol=tol, max_iter=max_iter,
                                 seed=seed, tau=tau)
    if scores:
        rows = np.rec.fromarrays((masters["master_id"], mining.outlier_scores(model, pts)),
                                 names="master_id,score")
        _echo(csvio.blocks(",".join(rows.dtype.names), "%d,%.6f", rows))
    else:
        click.echo(model.to_json())
    click.echo(f"iters={model.n_iter} evals={stats.responsibility_evaluations} "
               f"pruned={stats.nodes_pruned}", err=True)


# ---------------------------------------------------------------------------
# bench20

@cli.command("bench20")
@click.option("--store", "store_dir", required=True, type=click.Path(exists=True))
@click.option("--queries", "queries_file", default=None, type=click.Path(exists=True),
              help="Query list; defaults to the shipped queries/twenty.txt.")
def bench20_cmd(store_dir, queries_file):
    """Run the documented 20-query benchmark set; per-query CSV on stdout."""
    if queries_file is None:
        queries_file = str(default_queries_file())
    qdir = Path(queries_file).resolve().parent
    lines = [ln.strip() for ln in Path(queries_file).read_text().splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    rows = []
    for qid, line in enumerate(lines, 1):
        argv = shlex.split(line.format(store=store_dir, queries=qdir))
        t0 = time.perf_counter()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = run(argv)
        # the command cell is quoted, so its quotes are doubled (RFC 4180)
        rows.append((qid, code, time.perf_counter() - t0, line.replace('"', '""')))
    _echo(csvio.blocks("query_id,exit_code,seconds,command", '%d,%d,%.3f,"%s"', rows))
    failures = sum(code != 0 for _, code, _, _ in rows)
    if failures:
        raise ValidationError(f"{failures} of {len(lines)} benchmark queries failed")


def default_queries_file() -> Path:
    """The shipped query set, resolved relative to the installed package."""
    candidates = [
        Path(__file__).resolve().parents[2] / "queries" / "twenty.txt",
        Path.cwd() / "queries" / "twenty.txt",
    ]
    for c in candidates:
        if c.exists():
            return c
    raise StoreIOError("cannot locate queries/twenty.txt; pass --queries")


# ---------------------------------------------------------------------------
# dispatch

def run(argv) -> int:
    """Dispatch argv through the CLI, mapping exceptions to exit codes."""
    try:
        cli.main(args=list(argv), standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_VALIDATION
    except ValidationError as exc:
        click.echo(f"validation error: {exc}", err=True)
        return EXIT_VALIDATION
    except (StoreIOError, OSError) as exc:
        click.echo(f"I/O error: {exc}", err=True)
        return EXIT_IO


def main(argv=None) -> int:
    code = run(sys.argv[1:] if argv is None else argv)
    if code:
        sys.exit(code)
    return 0


if __name__ == "__main__":
    main()
