"""Regenerate ``reference.json``, the frozen outputs the benchmark checks against.

Usage (from the root of a checkout)::

    PYTHONPATH=src python3 perfbench/make_reference.py

Stores the six ``fig2`` tables at their default config (header lines and
rows) and the three steady ratios of each stiff point. The stiff points come
from the closed-form quadratic roots, not from the iterative solver, so a
solver that fails or drifts there is caught rather than frozen.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import bitbounds
import bitbounds.cli
from bitbounds import MeasurementChannel

import workloads


def closed_form_ratios(model) -> list[float]:
    roots = {}
    for channel in MeasurementChannel:
        fim = bitbounds.steady_expected_fim(model, channel)
        roots[channel] = (bitbounds.quadratic_filter_root(model, fim),
                          bitbounds.quadratic_gain_root(model, fim))
    (j_unq, k_unq), (j_q, k_q) = roots[MeasurementChannel.UNQUANTIZED], roots[MeasurementChannel.ONE_BIT]
    return [10.0 * math.log10(j_q / j_unq),
            10.0 * math.log10((j_q + k_q) / (j_unq + k_unq)),
            10.0 * math.log10((j_q + k_q) / j_unq)]


def main() -> None:
    config = bitbounds.cli.default_config("fig2")
    fig2 = {}
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = bitbounds.cli.main(["fig2", "--out", tmp])
        if code != 0:
            raise SystemExit(f"fig2 exited with {code}")
        for alpha in config.alphas:
            fig2[repr(alpha)] = {}
            for kind in ("s", "f"):
                head, columns, rows = workloads._read_table(Path(tmp) / f"rho_{kind}_alpha_{alpha!r}.txt")
                fig2[repr(alpha)][kind] = {"hash": head, "columns": columns, "rows": rows}
    stiff = [{"alpha": alpha, "snr_db": snr,
              "ratios_db": closed_form_ratios(bitbounds.model_for_snr(alpha, snr))}
             for alpha in workloads.STIFF_ALPHAS for snr in workloads.STIFF_SNRS_DB]
    path = workloads.HERE / "reference.json"
    text = json.dumps({"ratios": "rho_f_db, rho_sl_db, rho_s_db", "fig2": fig2, "stiff": stiff},
                      indent=1)
    # one line per table row keeps the file short and diffable
    path.write_text(re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                           lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
