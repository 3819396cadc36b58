"""Each output check passes on the program's real outputs and fails on a corrupted copy.

The three workloads are made at reduced size (fewer vortices, steps, field
points and a coarser blob) and executed in-process through ``surfvort.cli``;
each test then corrupts one output file and runs the benchmark's own
``check_outputs`` on it.

Run with: python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import os
import shutil

import pytest

import checks
import run
import workloads
from surfvort import cli


def _execute(wl, in_dir, out_dir):
    for _, argv in wl.commands(in_dir, out_dir):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """{workload: (Workload, input dir, clean output dir)} at reduced size."""
    patch = pytest.MonkeyPatch()
    patch.setattr(workloads, "MESH_SUBDIVISIONS", 3)
    patch.setattr(workloads, "MESH_SAMPLED", 12)
    patch.setattr(workloads, "MESH_STEPS", 20)
    patch.setattr(workloads, "FIELD_SAMPLES", 60)
    patch.setattr(workloads, "LARGE_N_PER_PATCH", 30)
    patch.setattr(workloads, "LONG_STEPS", 400)
    out = {}
    try:
        for name in workloads.WORKLOADS:
            base = tmp_path_factory.mktemp(name)
            wl = workloads.make(name, 3, str(base / "in"))
            _execute(wl, str(base / "in"), str(base / "clean"))
            out[name] = (wl, str(base / "in"), str(base / "clean"))
    finally:
        patch.undo()
    return out


def _failures(wl, in_dir, out_dir, capsys):
    tally = run.Tally()
    run.check_outputs(tally, wl, in_dir, out_dir)
    err = capsys.readouterr().err
    return tally, [line.split(":")[0].removeprefix("FAILED ") for line in err.splitlines()
                   if line.startswith("FAILED")]


@pytest.fixture
def copy(made, tmp_path):
    def _copy(name):
        wl, in_dir, clean = made[name]
        dst = str(tmp_path / name)
        shutil.copytree(clean, dst)
        return wl, in_dir, dst
    return _copy


def _edit_line(path, index, edit):
    """Apply `edit` to line `index` (0 = first line) of a text file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    lines[index] = edit(lines[index])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))


def _scale_field(row, col, factor):
    cells = row.split(",")
    cells[col] = repr(float(cells[col]) * factor)
    return ",".join(cells)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_clean_outputs_pass(made, name, capsys):
    wl, in_dir, clean = made[name]
    tally, failed = _failures(wl, in_dir, clean, capsys)
    assert failed == [] and tally.attempted > 0


def test_perturbed_energy_column_fails(copy, capsys):
    wl, in_dir, d = copy("flat_long")
    _edit_line(os.path.join(d, "plane5", "energy.csv"), 3, lambda r: _scale_field(r, 2, 1.0 + 1e-4))
    assert _failures(wl, in_dir, d, capsys)[1] == ["plane5 drift"]


def test_perturbed_h_tilde_fails(copy, capsys):
    wl, in_dir, d = copy("mesh_blob")
    _edit_line(os.path.join(d, "blob", "energy.csv"), 2, lambda r: _scale_field(r, 3, 1.01))
    assert _failures(wl, in_dir, d, capsys)[1] == ["blob drift"]


def test_missing_energy_rows_fail(copy, capsys):
    wl, in_dir, d = copy("flat_large_n")
    path = os.path.join(d, "taylor_plane", "energy.csv")
    _edit_line(path, -2, lambda r: "")
    with open(path, encoding="utf-8") as fh:
        text = fh.read().replace("\n\n", "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert _failures(wl, in_dir, d, capsys)[1] == ["taylor_plane drift"]


def test_plane_impulse_fails_on_moved_vortex(copy, capsys):
    wl, in_dir, d = copy("flat_large_n")
    # vortex 7 at step 5 of the reduced run (60 vortices)
    _edit_line(os.path.join(d, "taylor_plane", "trajectories.csv"), 1 + 60 * 5 + 7,
               lambda r: _scale_field(r, 3, 1.05))
    assert _failures(wl, in_dir, d, capsys)[1] == ["taylor_plane impulses"]


def test_sphere_impulse_fails_on_moved_vortex(copy, capsys):
    wl, in_dir, d = copy("flat_long")
    path = os.path.join(d, "sphere5", "trajectories.csv")

    def rotate(row):
        c = row.split(",")
        x, y = float(c[3]), float(c[4])
        c[3], c[4] = repr(0.999 * x - 0.0447 * y), repr(0.0447 * x + 0.999 * y)
        c[6], c[7] = c[3], c[4]
        return ",".join(c)

    _edit_line(path, 1 + 5 * 200 + 2, rotate)
    assert _failures(wl, in_dir, d, capsys)[1] == ["sphere5 impulse"]


def test_kimura_pair_off_translation_fails(copy, capsys):
    wl, in_dir, d = copy("flat_long")
    # both vortices shifted by the same 1e-6: the linear impulse of the
    # opposite pair stays, the closed form does not
    def shift(row):
        cells = row.split(",")
        cells[3] = repr(float(cells[3]) + 1e-6)
        return ",".join(cells)

    for i in (0, 1):
        _edit_line(os.path.join(d, "kimura_plane", "trajectories.csv"), 1 + 2 * 300 + i, shift)
    assert _failures(wl, in_dir, d, capsys)[1] == ["kimura_plane translation"]


def test_sphere_pair_off_rotation_fails(copy, capsys):
    wl, in_dir, d = copy("flat_long")
    path = os.path.join(d, "kimura_sphere", "trajectories.csv")
    for i in (0, 1):
        _edit_line(path, 1 + 2 * 350 + i, lambda r: _scale_field(r, 6, 1.0 + 1e-4))
    assert "kimura_sphere rotation" in _failures(wl, in_dir, d, capsys)[1]


def test_mapped_back_row_off_mesh_fails(copy, capsys):
    wl, in_dir, d = copy("mesh_blob")
    # last row: the counter vortex at the last step, pushed 1% outwards
    path = os.path.join(d, "blob", "trajectories.csv")
    for col in (3, 4, 5):
        _edit_line(path, -2, lambda r, col=col: _scale_field(r, col, 1.01))
    assert _failures(wl, in_dir, d, capsys)[1] == ["blob map-back"]


def test_flipped_sphere_triangle_fails(copy, capsys):
    wl, in_dir, d = copy("mesh_blob")
    path = os.path.join(d, "blob", "sphere.obj")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    # swap the positions of two corners of the first triangle: the triangle
    # list is kept, but that triangle (and some neighbours) turn inside out
    first_face = next(i for i, line in enumerate(lines) if line.startswith("f "))
    a, b = (int(t) - 1 for t in lines[first_face].split()[1:3])
    lines[a], lines[b] = lines[b], lines[a]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    tally, failed = _failures(wl, in_dir, d, capsys)
    assert failed == ["blob sphere map"]
    ok, detail = checks.sphere_map(path, os.path.join(in_dir, wl.mesh))
    assert not ok and "0 triangles not positively oriented" not in detail


def test_off_sphere_vertex_fails(copy, capsys):
    wl, in_dir, d = copy("mesh_blob")
    _edit_line(os.path.join(d, "blob", "sphere.obj"), 5,
               lambda r: "v " + " ".join(repr(float(t) * (1.0 + 1e-9)) for t in r.split()[1:]))
    assert "blob sphere map" in _failures(wl, in_dir, d, capsys)[1]


def test_perturbed_plane_field_velocity_fails(copy, capsys):
    wl, in_dir, d = copy("flat_large_n")
    # row 0 of the data is always in the sample (header is line 1, comment line 0)
    _edit_line(os.path.join(d, "field_taylor_plane", "field.csv"), 2,
               lambda r: _scale_field(r, 3, 1.0 + 1e-6))
    assert _failures(wl, in_dir, d, capsys)[1] == ["field taylor_plane"]


def test_perturbed_sphere_stream_function_fails(copy, capsys):
    wl, in_dir, d = copy("flat_long")
    _edit_line(os.path.join(d, "field_sphere5", "field.csv"), -2,
               lambda r: _scale_field(r, 6, 1.0 + 1e-6))
    assert _failures(wl, in_dir, d, capsys)[1] == ["field sphere5"]


def test_perturbed_mesh_factor_fails_the_mesh_field(copy, capsys):
    wl, in_dir, d = copy("mesh_blob")
    path = os.path.join(d, "blob", "factors.csv")
    # scale every h: whichever triangle a sampled field point falls in changes
    with open(path, encoding="utf-8") as fh:
        n = len(fh.read().splitlines())
    for i in range(1, n):
        _edit_line(path, i, lambda r: _scale_field(r, 2, 1.0 + 1e-6))
    assert _failures(wl, in_dir, d, capsys)[1] == ["field blob"]


def test_changed_byte_breaks_identity(made, tmp_path):
    _, _, clean = made["flat_long"]
    other = str(tmp_path / "other")
    shutil.copytree(clean, other)
    assert checks.identical_outputs(checks.output_digests(clean), checks.output_digests(other))[0]
    _edit_line(os.path.join(other, "plane5", "trajectories.csv"), 1, lambda r: r + "0")
    ok, detail = checks.identical_outputs(checks.output_digests(clean), checks.output_digests(other))
    assert not ok and "plane5/trajectories.csv" in detail
