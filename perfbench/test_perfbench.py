"""Self-tests of the benchmark's statistics, reference kernel and tracer."""

import subprocess
import sys
from pathlib import Path

import pytest

from summary import REF_NOMINAL_MS, corrected, tail
from tracer import MODULES, Tracer

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("n, index, pct", [(20, 9, 50.0),
                                           (21, 10, 100.0 * 11 / 21),
                                           (100, 89, 90.0)])
def test_tail_has_ten_samples_beyond(n, index, pct):
    values = [float(v) for v in range(n, 0, -1)]   # unsorted input
    value, got_pct, got_n = tail(values)
    assert value == float(index + 1)
    assert sum(v > value for v in values) == 10
    assert got_pct == pytest.approx(pct)
    assert got_n == n


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_correction_is_identity_at_nominal_reference():
    for raw in (0.0, 1.5, 312.25):
        assert corrected(raw, REF_NOMINAL_MS) == raw
    assert corrected(10.0, 2 * REF_NOMINAL_MS) == 5.0


def test_reference_kernel_does_not_import_the_library():
    code = ("import sys; import refkernel; refkernel.RefKernel().time_ms(); "
            "bad = [m for m in sys.modules if m.startswith('resultant_lab')]; "
            "assert not bad, bad")
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                   timeout=120)


def _bindings():
    mods = [m for name, m in sys.modules.items()
            if name == "resultant_lab" or name.startswith("resultant_lab.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_tracer_rebinds_every_importer_and_restores_every_binding():
    import resultant_lab as rl
    from resultant_lab import basis, cayley, matpoly, multipoly, sylvester

    before = _bindings()
    original = basis.basis_eval_all
    system, root = rl.random_system_with_root(2, 2, 3, "chebyshev")
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = {m.basis_eval_all
                   for m in (basis, matpoly, cayley, sylvester, multipoly)}
        assert len(wrapped) == 1 and original not in wrapped
        assert rl.solve_system is not before[("resultant_lab",
                                              "solve_system")]
        rl.solve_system(system, "sylvester")
    finally:
        totals = tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert not tracer.installed
    calls, incl, self_ = totals["rootfinder.solve_system"]
    assert calls == 1 and 0.0 < self_ < incl
    assert totals["sylvester.sylvester_resultant"][0] == 1
    assert totals["basis.basis_eval_all"][0] > 0
    assert all(k.split(".")[0] in MODULES for k in totals)


def test_emitted_names_match_benchmark_json():
    import json

    import run
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    op = {"raw_ms": 10.0, "ref_before_ms": 9.0, "ref_after_ms": 9.0,
          "ok": True, "digits": 15.0, "layers": {}, "fates": {}}
    ops = [dict(op, traced=k % 2 == 1) for k in range(12)]
    record = {"ops": ops, "peak_rss_mb": 60.0}
    e2e, _ = run.end_to_end(
        [(1.0, {"setup_ref_ms": 9.0})], record)
    layers, _ = run.per_layer(record)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**e2e, **layers}.items())
