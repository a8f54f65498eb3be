"""Regenerate paper Tables 1-4 and the hardware sizing claims.

These are configuration-derived tables; the benchmark times their
(re)generation and the assertions pin the paper's stated values.
"""

from repro.experiments.tables import (
    render_all,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    storage_summary,
)


def test_table1_arvi_access_steps(benchmark, save_result):
    text = benchmark(render_table1)
    save_result("table1_arvi_access", text)
    assert "BVIT" in text


def test_table2_architectural_parameters(benchmark, save_result):
    text = benchmark(render_table2)
    save_result("table2_machine", text)
    assert "256" in text          # ROB entries
    assert "4 ALUs" in text


def test_table3_benchmarks(benchmark, save_result):
    text = benchmark(render_table3)
    save_result("table3_benchmarks", text)
    for name in ("gcc", "compress", "go", "ijpeg", "li", "m88ksim",
                 "perl", "vortex"):
        assert name in text


def test_table4_predictor_latencies(benchmark, save_result):
    text = benchmark(render_table4)
    save_result("table4_latencies", text)
    # Paper Table 4: ARVI 6/12/18 cycles; hybrid 2/4/6.
    assert "6        12        18" in text.replace("  ", "  ")


def test_section2_hardware_sizing(benchmark, save_result):
    text = benchmark(storage_summary)
    save_result("section2_sizing", text)
    # Paper: 80 x 72 DDT = 5760 bits; 72 x 11 shadow = 792 bits.
    assert "5760 bits" in text
    assert "792 bits" in text


def test_render_all_regenerates_every_artifact(benchmark, save_result):
    """One-shot regeneration of every configuration-derived artifact;
    its keys are the result-file names (``speculation_modes`` is written
    only here)."""
    artifacts = benchmark(render_all)
    assert set(artifacts) == {
        "table1_arvi_access", "table2_machine", "table3_benchmarks",
        "table4_latencies", "section2_sizing", "speculation_modes",
    }
    for name, text in artifacts.items():
        save_result(name, text)
