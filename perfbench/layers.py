"""Per-layer metrics, computed from the spans and counters of a traced run.

Each metric is a function of one Aggregate that returns None when that
aggregate holds none of the spans it needs.  "Derived" metrics are a
difference of two spans; counts repeat exactly for a given seed.
README.md lists which end-to-end metric each one should move, and where.
"""

from __future__ import annotations

from spans import Aggregate


def _per(value, base, scale=1.0):
    if value is None or not base:
        return None
    return value / base * scale


def _sum(*values):
    present = [v for v in values if v is not None]
    return sum(present) if present else None


def _update_us(g):
    return _per(g.total.get("algorithms.update"), g.count.get("algorithms.update"), 1e6)


def _matvec_us(g):
    return _per(g.counter_sum("algorithms.matvec_s"), g.counter_sum("algorithms.matvec_steps"), 1e6)


def _codec_us(g):
    update, matvec = _update_us(g), _matvec_us(g)
    return None if update is None or matvec is None else update - matvec


def _trial_ms(name, trials):
    return lambda g: _per(g.total.get("verification." + name),
                          g.count.get("verification." + name, 0) * trials, 1e3)


def _mean_ms(name):
    return lambda g: _per(g.total.get(name), g.count.get(name), 1e3)


def per_layer_metrics(cert_trials: dict):
    """(name, unit, better, fn) for every per-layer metric."""
    return [
        # streaming: the runner and the protocol simulation
        ("streaming.runner_self_us_per_step", "us", "lower",
         lambda g: _per(g.self_time.get("streaming.run"), g.counter_sum("streaming.run_steps"), 1e6)),
        ("streaming.steps_per_op", "count", "lower",
         lambda g: _per(_sum(g.counter_sum("streaming.run_steps"),
                             g.counter_sum("streaming.split_steps")), g.count.get("op"))),
        ("streaming.state_bytes_per_step", "bytes", "lower",
         lambda g: _per(g.counter_sum("streaming.state_bytes_x_steps"),
                        g.counter_sum("streaming.run_steps"))),
        ("streaming.max_used_bits", "bits", "lower", lambda g: g.counter_max("streaming.max_used_bits")),
        ("streaming.shuffle_ms", "ms", "lower", _mean_ms("streaming.shuffle")),
        ("streaming.split_ms", "ms", "lower", _mean_ms("streaming.split")),
        ("streaming.split_over_direct", "ratio", "lower",
         lambda g: _per(g.total.get("streaming.split"), g.counter_sum("streaming.split_direct_s"))),
        # algorithms
        ("algorithms.update_us_per_step", "us", "lower", _update_us),
        ("algorithms.matvec_us_per_step", "us", "lower", _matvec_us),
        ("algorithms.codec_us_per_step", "us", "lower", _codec_us),
        ("algorithms.finalize_ms", "ms", "lower", _mean_ms("algorithms.finalize")),
        ("algorithms.projection_ms", "ms", "lower", _mean_ms("algorithms.projection")),
        ("algorithms.perceptron_ms", "ms", "lower", _mean_ms("algorithms.perceptron")),
        ("algorithms.perceptron_updates", "count", "lower",
         lambda g: g.counter_mean("algorithms.perceptron_updates")),
        # reductions
        ("reductions.wrapper_self_us_per_step", "us", "lower",
         lambda g: _per(g.self_time.get("reductions.update"), g.count.get("reductions.update"), 1e6)),
        ("reductions.inner_steps_per_outer", "count", "lower",
         lambda g: _per(g.edge_count.get(("reductions.update", "algorithms.update")),
                        g.count.get("reductions.update"))),
        # instances
        ("instances.gen_ms", "ms", "lower", _mean_ms("instances.gen")),
        ("instances.accept_ratio", "ratio", "higher",
         lambda g: _per(g.counter_sum("instances.accepted"), g.counter_sum("instances.attempts"))),
        ("instances.attempt_ms", "ms", "lower",
         lambda g: _per(g.total.get("instances.accept_stats"), g.counter_sum("instances.attempts"), 1e3)),
        # linalg
        ("linalg.orthonormalize_ms", "ms", "lower", _mean_ms("linalg.orthonormalize")),
        ("linalg.kernel_vector_ms", "ms", "lower", _mean_ms("linalg.kernel_vector")),
        # verification
        ("verification.no_joint_sol_ms_per_trial", "ms", "lower",
         _trial_ms("no_joint_sol", cert_trials["no_joint_sol"])),
        ("verification.sandwich_ms_per_trial", "ms", "lower",
         _trial_ms("sandwich", cert_trials["sandwich"])),
        ("verification.singular_ms_per_trial", "ms", "lower",
         _trial_ms("singular", cert_trials["singular"])),
        ("verification.comorth_ms_per_trial", "ms", "lower",
         _trial_ms("comorth", cert_trials["comorth"])),
        ("verification.marginal_ms", "ms", "lower", _mean_ms("verification.marginal")),
        ("verification.concentration_ms", "ms", "lower", _mean_ms("verification.concentration")),
        ("verification.skipped_frac", "ratio", "lower",
         lambda g: _per(g.counter_sum("verification.skipped"),
                        g.counter_sum("verification.joint_trials"))),
        # serialize
        ("serialize.instance_write_ms", "ms", "lower", _mean_ms("serialize.write")),
        ("serialize.instance_read_ms", "ms", "lower", _mean_ms("serialize.read")),
        ("serialize.instance_bytes", "bytes", "lower",
         lambda g: g.counter_mean("serialize.instance_bytes")),
        # cli
        ("cli.import_s", "s", "lower", lambda g: g.counter_mean("cli.import_s")),
        ("cli.self_ms_per_op", "ms", "lower",
         lambda g: _per(g.self_time.get("cli.main"), g.count.get("op"), 1e3)),
        ("cli.resume_ms", "ms", "lower", _mean_ms("cli.resume")),
    ]


def resolve(metrics, sources):
    """Value and source of each metric: the first (label, tracer) in `sources`
    whose spans give it a value.  Returns {name: (value, unit, label)} and the
    names no source could give."""
    aggregates = [(label, Aggregate(tracer)) for label, tracer in sources]
    out, missing = {}, []
    for name, unit, _, fn in metrics:
        for label, agg in aggregates:
            value = fn(agg)
            if value is not None:
                out[name] = (float(value), unit, label)
                break
        else:
            missing.append(name)
    return out, missing
