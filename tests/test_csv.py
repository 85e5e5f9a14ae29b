"""Every CSV table the package writes, read back field by field.

The five writers (``are``, ``simulate``, ``hist``, ``influence`` and ``fit``)
share one field rule: a string is itself, an integer is its digits, None is
empty, and a float is its shortest round-trip repr, ``inf`` and ``-inf`` too.
"""

import csv
import dataclasses
import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from severfit import asymptotics, cli, estimators, mc
from severfit.asymptotics import METHODS, AREReport, IFCurve, are_table_csv
from severfit.dist import ThresholdPair
from severfit.estimators import EstimateResult
from severfit.mc import HistogramPanel, SimCell, SimReport, sim_table_csv

FLOATS = st.floats(allow_nan=False)  # inf, -inf, -0.0 and subnormals included
OPTIONAL_FLOATS = st.none() | FLOATS
COUNTS = st.integers(0, 10**6) | st.integers(0, 10**6).map(np.int64)
SIZES = st.integers(1, 10**6) | st.integers(1, 10**6).map(np.int64)
METHOD = st.sampled_from(METHODS)
SIM_HEADER = "method,a,b,d,u,n,mean_ratio,se_mean_ratio,re,se_re,failures,total"
HIST_HEADER = "method,n,replicate,theta_hat,skewness"


def read_back(text: str, header: str) -> list[list[str]]:
    """The body rows of ``text``, checked to be a rectangular CSV under ``header``."""
    assert text.endswith("\n")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == header.split(",")
    assert all(len(row) == len(rows[0]) for row in rows)
    assert [",".join(row) for row in rows] == text[:-1].split("\n")
    return rows[1:]


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_fields(row: list[str], values: tuple) -> None:
    """Each field of ``row`` is ``values``' entry under the one field rule."""
    assert len(row) == len(values)
    for field, value in zip(row, values):
        if value is None:
            assert field == ""
        elif isinstance(value, str):
            assert field == value
        elif isinstance(value, (int, np.integer)):
            assert field.isdigit() and int(field) == value
        else:
            assert bits(float(field)) == bits(float(value)), (field, value)


def capture_writes(monkeypatch) -> list[str]:
    written = []
    monkeypatch.setattr(cli, "_write_text", lambda path, text: written.append(text))
    return written


class TestIntegerFields:
    def test_sim_table_writes_a_numpy_n_as_digits(self):
        cell = SimCell(n=np.int64(50), method="mle", theta_true=10.0,
                       thresholds=ThresholdPair(0.5, 23.0))
        report = SimReport(1.0, 0.5, 0.25, None, np.int64(3), 60)
        (row,) = read_back(sim_table_csv([(cell, report)]), SIM_HEADER)
        assert row == ["mle", "", "", "0.5", "23.0", "50", "1.0", "0.5", "0.25", "", "3", "60"]

    def test_hist_writes_a_numpy_n_as_digits(self, monkeypatch):
        written = capture_writes(monkeypatch)
        argv = ["hist", "--n-list", "30", "--count", "3", "--methods", "mcm"]
        assert cli.main(argv) == 0
        real = mc.histogram_study
        monkeypatch.setattr(mc, "histogram_study", lambda *args, **kwargs: [
            dataclasses.replace(panel, n=np.int64(panel.n)) for panel in real(*args, **kwargs)
        ])
        assert cli.main(argv) == 0
        assert written[0] == written[1]
        assert [row[1] for row in read_back(written[1], HIST_HEADER)] == ["30"] * 3


class TestEveryWriterReadsBack:
    """Small tables of arbitrary fields: every line has the header's field
    count, and ``csv.reader`` gives back each field under the one rule."""

    @given(st.lists(st.tuples(METHOD, FLOATS, FLOATS, FLOATS, FLOATS, OPTIONAL_FLOATS),
                    max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_are_table(self, cells):
        reports = [AREReport(*cell) for cell in cells]
        rows = read_back(are_table_csv(reports), "method,a,b,d,u,are,reason")
        for row, r in zip(rows, reports, strict=True):
            reason = "d>=u" if r.are is None else ""
            assert_fields(row, (r.method, r.a, r.b, r.d, r.u, r.are, reason))

    @given(st.lists(
        st.tuples(st.sampled_from(("mle", *METHODS)), SIZES, OPTIONAL_FLOATS,
                  st.tuples(OPTIONAL_FLOATS, OPTIONAL_FLOATS, OPTIONAL_FLOATS,
                            OPTIONAL_FLOATS, COUNTS, COUNTS)),
        max_size=5,
    ))
    @settings(max_examples=60, deadline=None)
    def test_sim_table(self, cells):
        t = ThresholdPair(0.5, 23.0)
        results = [
            (SimCell(n=n, method=method, theta_true=10.0, thresholds=t, a=a, b=a),
             SimReport(*report))
            for method, n, a, report in cells
        ]
        rows = read_back(sim_table_csv(results), SIM_HEADER)
        for row, (cell, report) in zip(rows, results):
            assert_fields(row, (
                cell.method, cell.a, cell.b, t.d, t.u, cell.n,
                report.mean_ratio, report.se_mean_ratio, report.re, report.se_re,
                report.failure_count, report.total_samples,
            ))
        designs = dict.fromkeys((c.method, c.a) for c, _ in results if c.method != "mle")
        assert len(rows) == len(results) + len(designs)
        for row, (method, a) in zip(rows[len(results):], designs, strict=True):
            are = asymptotics.are(method, 10.0, t)
            assert_fields(row, (method, a, a, t.d, t.u, "inf", 1.0, None, are, None, 0, 0))

    @given(st.lists(st.tuples(METHOD, SIZES, st.lists(FLOATS, max_size=4), FLOATS),
                    max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_hist(self, panels):
        panels = [HistogramPanel(method, n, np.array(values), 0, skewness)
                  for method, n, values, skewness in panels]
        with pytest.MonkeyPatch.context() as m:
            written = capture_writes(m)
            m.setattr(mc, "histogram_study", lambda *args, **kwargs: panels)
            assert cli.main(["hist"]) == 0
        rows = read_back(written[0], HIST_HEADER)
        expected = [(p.method, p.n, i, value, p.skewness)
                    for p in panels for i, value in enumerate(p.estimates)]
        assert len(rows) == len(expected)
        for row, values in zip(rows, expected):
            assert_fields(row, values)

    @given(st.lists(st.floats(-1e300, 1e300) | st.sampled_from([math.inf, -math.inf]),
                    min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_influence(self, values):
        mcm = np.array(values)
        grid = np.linspace(0.0, 30.0, mcm.size)
        with pytest.MonkeyPatch.context() as m:
            written = capture_writes(m)
            m.setattr(asymptotics, "influence_curve",
                      lambda F, method, a, b, xs: IFCurve(method, a, b, np.asarray(xs), mcm))
            argv = ["influence", "--theta", "10", "--x-min", "0", "--x-max", "30",
                    "--points", str(mcm.size)]
            assert cli.main(argv) == 0
        rows = read_back(written[0], "x,if_mtm,if_mcm")
        assert len(rows) == mcm.size
        for row, x, value in zip(rows, grid, mcm):
            assert_fields(row, (x, value / (1.0 - 0.05 - 0.05), value))

    @given(
        method=st.sampled_from(estimators.FIT_METHODS),
        n=st.integers(1, 50),
        result=st.tuples(FLOATS, st.floats(0.0)).map(lambda r: ("true", *r))
        | st.sampled_from(["BelowLowerBound", "AboveUpperBound", "EmptyWindow"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_fit(self, method, n, result):
        if isinstance(result, tuple):
            _, estimate, avar = result
            fitted = EstimateResult(method, "exp", True, estimate, avar)
        else:
            fitted = EstimateResult(method, "exp", False, None, None, reason=result)
        with pytest.MonkeyPatch.context() as m:
            written = capture_writes(m)
            m.setattr(estimators, "read_loss_csv", lambda path: np.ones(n))
            m.setattr(estimators, "fit", lambda *args: fitted)
            argv = ["fit", "--method", method, "--model", "exp", "--data", "losses.csv",
                    "--d", "0", "--u", "inf"]
            assert cli.main(argv) == (0 if fitted.exists else 2)
        (row,) = read_back(written[0], "method,model,n,exists,estimate,avar,se,reason")
        if fitted.exists:
            se = math.sqrt(fitted.avar / n)
            values = ("true", fitted.estimate, fitted.avar, se, "")
        else:
            values = ("false", None, None, None, fitted.reason)
        assert_fields(row, (method, "exp", n, *values))
