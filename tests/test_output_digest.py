"""The comparison of ``output_digest.py --against``."""

import output_digest


def _line(label, key, value):
    return f"{label} {key} {output_digest._hex(value)}"


def test_compare_reports_each_quantity_with_its_largest_difference():
    ours = [
        _line("quadrature-em", "kernel_reproduce[0]", 1.0 + 1e-15),
        _line("quadrature-em", "kernel_reproduce[1]", 2.0),
        _line("quadrature-em", "round_trip_error[0]", 3e-16),
        _line("golden-em-0.5", "residuals.eigen_max", 1e-12),
        "golden-em-0.5 stage None pass True",
    ]
    theirs = [
        _line("quadrature-em", "kernel_reproduce[0]", 1.0),
        _line("quadrature-em", "kernel_reproduce[1]", 2.0 + 4e-15),
        _line("quadrature-em", "round_trip_error[0]", 1e-16),
        _line("golden-em-0.5", "residuals.eigen_max", 1e-12),
        "golden-em-0.5 stage 'gram' pass False",
        "0" * 64 + "  (5 lines)",
    ]
    report = output_digest.compare(ours, theirs)
    kernel = next(r for r in report if r.startswith("quadrature-em kernel_reproduce:"))
    assert "2 line(s) differ" in kernel
    rel = float(kernel.rsplit(" ", 1)[1])
    assert abs(rel - 2e-15) < 2e-16  # relative, to the other checkout's value
    residual = next(r for r in report if r.startswith("quadrature-em round_trip_error:"))
    assert "absolute" in residual and abs(float(residual.rsplit(" ", 1)[1]) - 2e-16) < 1e-30
    stage = next(r for r in report if r.startswith("golden-em-0.5 stage:"))
    assert "not numeric" in stage
    assert not any("eigen_max:" in r for r in report)
    assert report[-1] == "4 line(s) differ in 3 quantities; 1 identical"
