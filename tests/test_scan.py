import io
import math

import numpy as np
import pytest

from rabi_est import posterior, scan
from rabi_est.dynamics import FieldConfig
from rabi_est.frequentist import Dataset
from rabi_est.posterior import PosteriorSpec, mmse
from rabi_est.priors import Prior, SupportWindow
from rabi_est.scan import Axis, GridTable, bayes_scan, fisher_scan, ml_root_scan, mmse_curve

CFG = FieldConfig(omega=1.0, b0=1.0, theta=math.pi / 2)


def reference_csv(table: GridTable) -> str:
    """Row by row, one format(v, ".17g") per numeric cell."""
    grids = np.meshgrid(*[ax.values for ax in table.axes], indexing="ij")
    cols = [g.ravel() for g in grids] + list(table.columns.values())
    lines = [",".join(table.header())]
    for i in range(table.n_cells):
        lines.append(",".join([format(c[i], ".17g") for c in cols] + [table.status[i]]))
    return "\n".join(lines) + "\n"


def to_csv_text(table: GridTable) -> str:
    out = io.StringIO()
    table.to_csv(out)
    return out.getvalue()


class TestToCsv:
    @pytest.mark.parametrize("chunk", [1, 4, 8192])
    def test_matches_per_cell_format(self, chunk, monkeypatch):
        monkeypatch.setattr(scan, "_CSV_CHUNK", chunk)
        axes = (Axis("b0", 0.1, 0.7, 3), Axis("omega", -1.0, 1.0 / 3.0, 3))
        special = np.array([math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1, -2.5e17, 1.0, 3.0])
        table = GridTable(
            axes=axes,
            columns={"a": special, "b": special[::-1].copy()},
            status=["ok", "error:DivergentInformation", "ok", "Complex", "ok", "ok", "x", "ok", "ok"],
        )
        text = to_csv_text(table)
        assert text == reference_csv(table)
        assert [line.split(",")[2] for line in text.splitlines()[1:]] == [
            "nan", "inf", "-inf", "-0", "1e-300", "0.10000000000000001", "-2.5e+17", "1", "3",
        ]

    def test_fisher_scan_matches_per_cell_format(self):
        table = fisher_scan(CFG, 2.0, (Axis("b0", 0.1, 5.0, 7), Axis("theta", 0.01, 3.13, 5)))
        assert to_csv_text(table) == reference_csv(table)


class TestFisherScanStatus:
    def test_zero_drive_frequency_scales_cfi_to_zero(self):
        # omega = 0 in the middle column scales every CFI by omega^2 = 0.
        table = fisher_scan(CFG, 2.0, (Axis("omega", -1.0, 1.0, 3), Axis("theta", 0.5, 2.5, 3)))
        assert table.status == ["ok"] * 3 + ["scaled_cfi_zero"] * 3 + ["ok"] * 3
        assert np.all(table.columns["cfi_raw"] > 0.0)

    def test_probability_pinned_at_one_is_degenerate(self):
        # b0 sin(theta) = pi/2 and a detuning of 1e-7 put the detection
        # probability within the guard of 1 at the centre cell only.
        table = fisher_scan(
            CFG,
            1.0 + 1e-7,
            (Axis("b0", math.pi / 2 - 0.5, math.pi / 2 + 0.5, 3), Axis("omega", 0.5, 1.5, 3)),
        )
        expect = ["ok"] * 9
        expect[4] = "degenerate_probability"
        assert table.status == expect
        assert np.isnan(table.columns["cfi_raw"][4])


class TestMlRootScanStatus:
    def test_known_cells(self):
        # xbar = 0.2 inverts to s ~ 2.07 > b = 1: real roots omega -+ 2 sqrt(s^2 - 1),
        # the smaller one negative at omega = 1 and positive at omega = 5.
        # xbar = 0.9 gives sinc(s) > sinc(b), so s < b and the roots are complex.
        table = ml_root_scan(CFG, (Axis("omega", 1.0, 5.0, 2), Axis("xbar", 0.2, 0.9, 2)))
        assert table.status == ["NegativeRejected", "Complex", "Ambiguous", "Complex"]
        minus = table.columns["root_minus"]
        assert minus[0] < 0.0 < minus[2]
        assert np.isnan(minus[1]) and np.isnan(minus[3])


def test_bayes_scan_independent_of_worker_count():
    prior = Prior.jeffreys(SupportWindow(1.5, 5.0), CFG)
    axes = (Axis("b0", 0.5, 3.0, 3), Axis("omega", -3.0, 3.0, 3))
    serial = bayes_scan(CFG, prior, axes, n=8, workers=1)
    pooled = bayes_scan(CFG, prior, axes, n=8, workers=2)
    assert to_csv_text(serial) == to_csv_text(pooled)
    assert {"ok", "error:DivergentInformation"} == set(serial.status)


FIG5_WINDOW = SupportWindow(0.1, 100.0)


class TestMmseCurve:
    def test_golden_curve_integrates_each_prior_once(self, monkeypatch):
        # The Fig. 5 curve: 101 count rates, each prior's column one batch.
        priors = [Prior.uniform(FIG5_WINDOW), Prior.jeffreys(FIG5_WINDOW, CFG),
                  Prior.gaussian(FIG5_WINDOW, 10.0, 2.0)]
        calls = {"integrate": 0, "integrate_owners": []}

        def one_owner(f, lo, hi, tol):
            calls["integrate"] += 1

        def owners(f, lo, hi, owner, tol, owners, original=posterior.integrate_owners):
            calls["integrate_owners"].append(owners)
            return original(f, lo, hi, owner, tol, owners=owners)

        monkeypatch.setattr(posterior, "integrate", one_owner)
        monkeypatch.setattr(posterior, "integrate_owners", owners)
        table = mmse_curve(CFG, priors, 8, Axis("xbar", 0.0, 1.0, 101))
        assert calls == {"integrate": 0, "integrate_owners": [101, 101, 101]}
        assert table.status == ["ok"] * 101

    def test_failing_cell_keeps_its_own_status(self, monkeypatch):
        # The integrand turns non-finite for the posteriors at xbar = 0.5
        # (k = 4) alone; the other cells keep the values of lone posteriors.
        priors = [Prior.uniform(FIG5_WINDOW), Prior.gaussian(FIG5_WINDOW, 10.0, 2.0)]
        axis = Axis("xbar", 0.0, 1.0, 5)
        alone = [[mmse(PosteriorSpec(data=Dataset(8, 8 * float(x)), cfg=CFG, prior=prior))
                  for x in axis.values] for prior in priors]
        ratio = posterior.log_likelihood_ratio
        monkeypatch.setattr(posterior, "log_likelihood_ratio",
                            lambda n, k, p, dp, ref: np.where(k == 4.0, np.nan, ratio(n, k, p, dp, ref)))
        table = mmse_curve(CFG, priors, 8, axis)
        assert table.status == ["ok", "ok", "error:DomainError", "ok", "ok"]
        for column, expect in zip(table.columns.values(), alone):
            assert np.isnan(column[2])
            assert [column[i] for i in (0, 1, 3, 4)] == [expect[i] for i in (0, 1, 3, 4)]
