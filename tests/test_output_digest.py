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
        _line("verify-wide-set0-n2d3", "cli.residuals.isometry", 4e-16),
        "golden-em-0.5 stage None pass True",
    ]
    theirs = [
        _line("quadrature-em", "kernel_reproduce[0]", 1.0),
        _line("quadrature-em", "kernel_reproduce[1]", 2.0 + 4e-15),
        _line("quadrature-em", "round_trip_error[0]", 1e-16),
        _line("golden-em-0.5", "residuals.eigen_max", 1e-12),
        _line("verify-wide-set0-n2d3", "cli.residuals.isometry", 3e-16),
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
    # a residual of a command-line report file is absolute too
    cli = next(r for r in report if r.startswith("verify-wide-set0-n2d3 cli.residuals."))
    assert "absolute" in cli and abs(float(cli.rsplit(" ", 1)[1]) - 1e-16) < 1e-30
    assert not any("eigen_max:" in r for r in report)
    assert report[-1] == "5 line(s) differ in 4 quantities; 1 identical"


def test_against_exits_nonzero_on_any_difference(monkeypatch, tmp_path, capsys):
    # the recipe cut down to three lines; --against gates on bit identity
    lines = [_line("quadrature-em", "kernel_reproduce[0]", 1.0),
             _line("quadrature-em", "kernel_reproduce[1]", 2.0),
             "golden-em-0.5 stage None pass True"]
    monkeypatch.setattr(output_digest, "recipe", lambda: list(lines))
    other = tmp_path / "other.txt"
    assert output_digest.main(["--lines"]) == 0
    other.write_text(capsys.readouterr().out)
    assert output_digest.main(["--against", str(other)]) == 0
    assert "0 line(s) differ in 0 quantities; 3 identical" in capsys.readouterr().out
    changed = lines[:1] + [_line("quadrature-em", "kernel_reproduce[1]", 2.0 + 4e-16)] + lines[2:]
    for theirs in (changed, lines[:2], lines + [_line("quadrature-em", "extra[0]", 0.0)]):
        other.write_text("\n".join(theirs) + "\n")
        assert output_digest.main(["--against", str(other)]) == 1
        capsys.readouterr()
