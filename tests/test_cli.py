"""End-to-end command-line behaviour: generation, runs, profiles, validation."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ritesolver import cli
from ritesolver.assembly import Assembler
from ritesolver.cli import (
    CaseConfig,
    ConfigError,
    LineOutsideDomain,
    ProfileSpec,
    builtin_case,
    generate_case,
    main,
    run_case,
)
from ritesolver.geometry import load_mesh, segment_element_hits
from ritesolver.kernels import STEFAN_BOLTZMANN, RadiativeProperties
from ritesolver.solver import solve_rites
from ritesolver.validation import lemma3_interior_identity


# ---------------------------------------------------------------------------
# Builtin enclosure generation


def test_generate_cube_counts(tmp_path):
    assert main(["generate", "cube", "--resolution", "5", "--out", str(tmp_path)]) == 0
    path = tmp_path / "cube_r5.json"
    assert path.is_file()
    mesh, grid = load_mesh(path)
    assert mesh.n_elements == 150
    assert grid.n_cells == 125
    assert np.all(grid.dims == 5)


def test_generate_lshape_geometry(tmp_path):
    path = generate_case("lshape", 2, tmp_path)
    mesh, grid = load_mesh(path)
    areas = mesh.arrays().areas
    assert areas.sum() == pytest.approx(26.0)
    # Interior volume is 7 cubic meters; at two cells per meter that is 56
    # interior cells out of the 1 x 3 x 3 bounding grid.
    from ritesolver.assembly import collocation_points

    col = collocation_points(mesh, grid)
    assert col.n_interior == 56
    assert grid.n_cells == 2 * 6 * 6
    # Inward orientation: the solid-angle closure holds from an interior point.
    report = lemma3_interior_identity(mesh, (0.5, 0.5, 0.5))
    assert report.passed


def test_lshape_notch_blocks_line_of_sight():
    mesh, _ = builtin_case("lshape", 2)
    # High up in the tall arm to the far end of the low arm: the inside
    # corner of the notch cuts the line. Dropping the start low enough
    # clears the corner.
    starts = np.array([[0.5, 0.5, 2.999], [0.5, 0.5, 0.5]])
    ends = np.array([[0.5, 2.9, 0.001], [0.5, 2.9, 0.001]])
    blocked = segment_element_hits(starts, ends, mesh.arrays()).any(axis=1)
    assert blocked.tolist() == [True, False]


@pytest.mark.parametrize("kind", ["cube", "lshape"])
def test_builtin_case_matches_generated_file(tmp_path, kind):
    mesh, grid = builtin_case(kind, 2)
    loaded_mesh, loaded_grid = load_mesh(generate_case(kind, 2, tmp_path))
    assert mesh.element_nodes == loaded_mesh.element_nodes
    for name in ("nodes", "node_temperatures"):
        assert np.array_equal(getattr(mesh, name), getattr(loaded_mesh, name)), name
    for name, value in vars(mesh.arrays()).items():
        assert np.array_equal(value, getattr(loaded_mesh.arrays(), name)), name
    for name in ("origin", "spacing", "dims", "temperatures"):
        assert np.array_equal(getattr(grid, name), getattr(loaded_grid, name)), name


def test_builtin_case_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        builtin_case("sphere", 3)
    with pytest.raises(ConfigError):
        builtin_case("cube", 0)
    with pytest.raises(ConfigError):
        generate_case("wedge", 2, ".")


# ---------------------------------------------------------------------------
# Configuration parsing


def write_config(tmp_path, **overrides):
    mesh_path = generate_case("cube", 2, tmp_path)
    data = {
        "mesh": mesh_path.name,
        "sigma_a": 0.4,
        "sigma_s": 0.6,
        "output": str(tmp_path / "out"),
        "profiles": [
            {
                "name": "floor_mid",
                "start": [0.0, 0.5, 0.0],
                "end": [1.0, 0.5, 0.0],
                "samples": 5,
                "quantity": "q",
            },
            {
                "name": "column",
                "start": [0.25, 0.25, 0.25],
                "end": [0.25, 0.25, 0.75],
                "samples": 2,
                "quantity": "G",
            },
        ],
    }
    data.update(overrides)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path)
    data = json.loads(path.read_text())
    data["quadrature"] = 4
    with pytest.raises(ConfigError, match="unknown config keys"):
        CaseConfig.from_dict(data, base_dir=tmp_path)


def test_config_rejects_removed_keys(tmp_path):
    # These were options once; old configs must fail loudly.
    for key, value in (("threads", 2), ("use_culls", False), ("min_area", 1e-3),
                       ("min_area_fraction", 1e-4), ("max_depth", 8), ("quad_order", 2)):
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=key):
            CaseConfig.from_file(path)


@pytest.mark.parametrize("flag", ["--min-subdiv-area", "--quad-order"])
def test_removed_subdivision_flag_is_a_usage_error(tmp_path, capsys, flag):
    config = write_config(tmp_path, profiles=[])
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config), flag, "2"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_config_requires_core_keys(tmp_path):
    write_config(tmp_path)
    with pytest.raises(ConfigError, match="missing required key"):
        CaseConfig.from_dict({"mesh": "cube_r2.json", "sigma_a": 1.0},
                             base_dir=tmp_path)


def test_config_checks_mesh_exists(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        CaseConfig.from_dict(
            {"mesh": "nowhere.json", "sigma_a": 1.0, "sigma_s": 0.0},
            base_dir=tmp_path,
        )


def test_profile_spec_validation():
    with pytest.raises(ConfigError, match="at least 2 samples"):
        ProfileSpec("p", (0, 0, 0), (1, 0, 0), 1, "q")
    with pytest.raises(ConfigError, match="must be 'q' or 'G'"):
        ProfileSpec("p", (0, 0, 0), (1, 0, 0), 2, "flux")


def _input_error_config(tmp_path, case):
    # A config whose run cannot start: its mesh file is missing, or is not a
    # closed surface (one face of a cube dropped), or holds a fractional grid
    # size or node index or a ragged grid size, or its output directory names
    # an existing file.
    config = {"mesh": "missing.json", "sigma_a": 1, "sigma_s": 0}
    if case != "missing_mesh":
        record = json.loads(generate_case("cube", 1, tmp_path).read_text())
        if case.startswith("open_mesh"):
            record["elements"] = record["elements"][:-1]
        if case == "fractional_dims":
            record["grid"]["dims"][0] += 0.7
        if case == "fractional_nodes":
            record["elements"][0]["nodes"] = [i + 0.4 for i in record["elements"][0]["nodes"]]
        if case == "ragged_dims":
            record["grid"]["dims"][0] = [record["grid"]["dims"][0]]
        (tmp_path / "mesh.json").write_text(json.dumps(record))
        config["mesh"] = "mesh.json"
    if case == "output_is_a_file":
        (tmp_path / "taken").write_text("")
        config["output"] = str(tmp_path / "taken")
    return config


@pytest.mark.parametrize("case", ["missing_mesh", "open_mesh_run", "open_mesh_validate",
                                  "fractional_dims", "fractional_nodes", "ragged_dims",
                                  "output_is_a_file"])
def test_main_reports_config_errors(tmp_path, capsys, case):
    # Input errors exit 2 with a one-line message, not with a traceback or
    # with exit 1, which means a convergence or oracle failure.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_input_error_config(tmp_path, case)))
    command = "validate" if case.endswith("validate") else "run"
    assert main([command, "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def _run_module(*args):
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "ritesolver.cli",
                           *args], env=env, capture_output=True, text=True, timeout=120)


def test_module_entry_point_is_the_console_script():
    # `python -m ritesolver.cli` runs the `ritesolve` entry point. runpy
    # warns when importing the package root has already loaded cli.
    run = _run_module("--help")
    assert run.returncode == 0, run.stderr
    assert "found in sys.modules" not in run.stderr
    assert "usage: ritesolve" in run.stdout


def test_module_entry_point_logs_under_the_package(tmp_path):
    # Run as __main__, the CLI still logs as ritesolver.cli, so logging set up
    # for the ritesolver hierarchy sees its lines.
    mesh = generate_case("cube", 1, tmp_path)
    config = tmp_path / "case.json"
    config.write_text(json.dumps({"mesh": mesh.name, "sigma_a": 0.5, "sigma_s": 0.5}))
    run = _run_module("run", "--config", str(config), "--out", str(tmp_path / "out"))
    assert "exit status" in run.stdout, run.stderr
    assert "INFO ritesolver.cli:" in run.stderr


def one_profile(**fields):
    rec = {"name": "p", "start": [0, 0.5, 0], "end": [1, 0.5, 0], "samples": 3, "quantity": "q"}
    return {"profiles": [dict(rec, **fields)]}


BAD_CONFIG_VALUES = {
    "samples": one_profile(samples="many"),
    "samples_fraction": one_profile(samples=2.7),
    "start_two_components": one_profile(start=[0, 0.5]),
    "name_slash": one_profile(name="a/b"),
    "name_dot": one_profile(name="."),
    "name_dotdot": one_profile(name=".."),
    "name_nul": one_profile(name="a\0b"),
    "name_too_long": one_profile(name="x" * 300),
    "profiles_number": {"profiles": 5},
    "sigma_a_negative": {"sigma_a": -1},
    "sigma_a_text": {"sigma_a": "x"},
    "sigma_a_bool": {"sigma_a": True},
    "sigma_s_bool": {"sigma_s": True},
    "sigma_sb": {"sigma_sb": 5.670374419e-8},  # not a key: sigma is STEFAN_BOLTZMANN
    "tolerance": {"tolerance": 0},
    "tolerance_bool": {"tolerance": True},
    "tolerance_inf": {"tolerance": float("inf")},
    "max_iterations": {"max_iterations": 0},
    "max_iterations_fraction": {"max_iterations": 1.5},
    "max_iterations_bool": {"max_iterations": True},
    "seed_text": {"seed": "x"},
    "reference_temperature_text": {"reference_temperature": "x"},
    "reference_temperature_zero": {"reference_temperature": 0},
    "output_number": {"output": 5},
    "dump_matrices_text": {"dump_matrices": "false"},
    "dump_visibility_text": {"dump_visibility": "false"},
}


@pytest.mark.parametrize("body", BAD_CONFIG_VALUES.values(), ids=BAD_CONFIG_VALUES.keys())
def test_bad_config_values_exit_with_usage_error(tmp_path, capsys, body):
    config = write_config(tmp_path, **body)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# Full runs


RUN_OUTPUTS = ["config.json", "convergence.csv", "oracles.csv", "oracles.txt",
               "profile_column.csv", "profile_floor_mid.csv"]
DUMPED_BLOCKS = ["gmat", "fmat", "h", "umat", "vmat", "t"]


def read_profile(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array(rows, dtype=float)


def test_run_writes_outputs_and_reruns_identically(tmp_path, capsys):
    # Once plain, once with both dumps and profiles scaled by a reference
    # temperature; each input run twice.
    (tmp_path / "scaled").mkdir()
    t_ref = 1000.0
    inputs = [
        (write_config(tmp_path), [], RUN_OUTPUTS),
        (write_config(tmp_path / "scaled", reference_temperature=t_ref),
         ["--dump-matrices", "--dump-visibility"],
         sorted(RUN_OUTPUTS + [f"{name}.npy" for name in DUMPED_BLOCKS] + ["visibility.csv"])),
    ]
    outs = []
    for i, (config, flags, expected) in enumerate(inputs):
        out_a, out_b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert main(["run", "--config", str(config), "--out", str(out_a), *flags]) == 0
        assert main(["run", "--config", str(config), "--out", str(out_b), *flags]) == 0
        capsys.readouterr()
        produced = sorted(f.name for f in out_a.iterdir())
        assert produced == expected
        for name in produced:
            if name == "config.json":
                continue  # echoes the differing output directory
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        echoed = json.loads((out_a / "config.json").read_text())
        assert echoed["sigma_a"] == 0.4
        assert echoed["sigma_s"] == 0.6
        outs.append(out_a)

    plain, scaled = outs
    for name, quantity in (("profile_floor_mid.csv", "q"), ("profile_column.csv", "G")):
        header, rows = read_profile(plain / name)
        scaled_header, scaled_rows = read_profile(scaled / name)
        assert header[-1] == f"{quantity} [W/m^2]"
        assert scaled_header == header[:-1] + [f"{quantity} [-]"]
        assert np.array_equal(scaled_rows[:, :4], rows[:, :4])
        assert np.array_equal(scaled_rows[:, 4], rows[:, 4] / (STEFAN_BOLTZMANN * t_ref**4))


def test_dumped_blocks_match_in_process_assembly(tmp_path, capsys):
    config = write_config(tmp_path, profiles=[])
    out = tmp_path / "o"
    assert main(["run", "--config", str(config), "--out", str(out), "--dump-matrices"]) == 0
    capsys.readouterr()
    case = CaseConfig.from_file(config)
    mesh, grid = load_mesh(case.mesh)
    props = case.radiative_properties(mesh.diameter())
    asm = Assembler(mesh, grid)
    surface, volume = asm.assemble_surface(props), asm.assemble_volume(props)
    blocks = {"gmat": surface.gmat, "fmat": surface.fmat, "h": surface.h,
              "umat": volume.umat, "vmat": volume.vmat, "t": volume.t}
    assert sorted(blocks) == sorted(DUMPED_BLOCKS)
    for name, block in blocks.items():
        dumped = np.load(out / f"{name}.npy")
        assert dumped.dtype == block.dtype and dumped.shape == block.shape, name
        assert dumped.tobytes() == block.tobytes(), name


def test_run_flag_overrides_reach_the_echo(tmp_path, capsys):
    config = write_config(tmp_path, profiles=[])
    out = tmp_path / "o"
    code = main([
        "run", "--config", str(config), "--out", str(out),
        "--tol", "1e-6", "--max-iter", "50",
    ])
    capsys.readouterr()
    assert code == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["tolerance"] == 1e-6
    assert echoed["max_iterations"] == 50


def test_run_reports_nonconvergence(tmp_path, capsys):
    config = write_config(tmp_path, profiles=[])
    out = tmp_path / "o"
    with pytest.warns(UserWarning):
        code = main([
            "run", "--config", str(config), "--out", str(out),
            "--max-iter", "1", "--tol", "1e-14",
        ])
    capsys.readouterr()
    assert code == 1


def test_visibility_dump_matches_reports(tmp_path, capsys):
    # The dented cube has partly visible pairs, so the dump carries every
    # kind of row: one per (collocation point, active element), its screen
    # column naming the blockers the screen lists with their cones; the
    # screen lists 27 pairs, each with a shadow on its element.
    from conftest import DENTED_FACES, make_dented_cube_mesh
    from ritesolver.geometry import write_mesh_file
    from ritesolver.visibility import build_active_list, classify_visibility, screen_active_set

    mesh = make_dented_cube_mesh()
    records = [{"nodes": list(f), "epsilon": 1.0, "T": 500.0} for f in DENTED_FACES]
    grid = {"origin": [0.0] * 3, "spacing": [0.5] * 3, "dims": [2, 2, 2], "T": [1000.0] * 8}
    write_mesh_file(tmp_path / "dent.json", mesh.nodes, records, grid)
    config = write_config(tmp_path, mesh="dent.json", profiles=[], dump_visibility=True)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    with open(tmp_path / "o" / "visibility.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))

    asm = Assembler(*load_mesh(tmp_path / "dent.json"))
    col = asm.collocation
    expected = {}
    for kind, points, normals, owners in (
        ("b", col.boundary_points, col.boundary_normals, col.boundary_element),
        ("i", col.interior_points, [None] * col.n_interior, [None] * col.n_interior),
    ):
        for idx, (p, n, own) in enumerate(zip(points, normals, owners)):
            own = None if own is None else int(own)
            active = build_active_list(p, n, mesh, source_element=own)
            for k, screened in zip(active.tolist(), screen_active_set(p, active, mesh, own)):
                expected[(kind, idx, k)] = (p, screened)
    assert sorted((r["point_kind"], int(r["point_index"]), int(r["active_element"]))
                  for r in rows) == sorted(expected)
    listed = 0
    for r in rows:
        _, screened = expected[(r["point_kind"], int(r["point_index"]), int(r["active_element"]))]
        assert r["screen"] == (";".join(str(b) for b, _ in screened) or "empty")
        listed += bool(screened)
    assert listed == 27
    partial = [r for r in rows if r["classification"].startswith("partial:")]
    assert partial
    for r in partial:
        k = int(r["active_element"])
        p, screened = expected[(r["point_kind"], int(r["point_index"]), k)]
        report = classify_visibility(p, k, screened, mesh)
        assert r["classification"] == f"partial:{report.fraction:.6f}"


# Flags a subcommand does not read: validate assembles and solves nothing,
# and run samples nothing with a seed.
UNREAD_FLAGS = [
    ("validate", ["--tol", "5"]),
    ("validate", ["--max-iter", "3"]),
    ("validate", ["--dump-matrices"]),
    ("validate", ["--dump-visibility"]),
    ("run", ["--seed", "99"]),
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS, ids=[" ".join(f) for _, f in UNREAD_FLAGS])
def test_unread_flags_are_usage_errors(tmp_path, capsys, command, flag):
    config = write_config(tmp_path, profiles=[])
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config), "--out", str(tmp_path / "o"), *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_validate_subcommand_passes(tmp_path, capsys):
    config = write_config(tmp_path, profiles=[])
    out = tmp_path / "v"
    assert main(["validate", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "oracles.csv").is_file()
    assert (out / "oracles.txt").is_file()


# ---------------------------------------------------------------------------
# Profile extraction


def _emit(state, collocation, grid, mesh, spec):
    return cli._profile_rows(state, spec, cli.sample_profile(collocation, grid, mesh, spec))


@pytest.fixture(scope="module")
def solved_case():
    mesh, grid = builtin_case("cube", 2)
    props = RadiativeProperties(sigma_a=0.4, sigma_s=0.6,
                                domain_diameter=mesh.diameter())
    asm = Assembler(mesh, grid)
    surface = asm.assemble_surface(props)
    volume = asm.assemble_volume(props)
    state = solve_rites(surface, volume, props)
    return mesh, grid, asm.collocation, volume, state


def test_profile_hits_cell_centers_exactly(solved_case):
    mesh, grid, collocation, volume, state = solved_case
    spec = ProfileSpec("column", (0.25, 0.25, 0.25), (0.25, 0.25, 0.75), 2, "G")
    rows = _emit(state, collocation, grid, mesh, spec)
    assert rows.shape == (2, 5)
    # Both samples sit on cell centers, so the emitted values are the solved
    # incident energies of those cells, bit for bit.
    for row, flat in zip(rows, (0, 4)):
        position = int(np.nonzero(volume.cells == flat)[0][0])
        assert row[4] == state.incident[position]
    assert rows[0, 0] == 0.0
    assert rows[1, 0] == pytest.approx(0.5)


def test_profile_flux_line_is_wall_bound(solved_case):
    mesh, grid, collocation, volume, state = solved_case
    spec = ProfileSpec("floor", (0.0, 0.5, 0.0), (1.0, 0.5, 0.0), 5, "q")
    rows = _emit(state, collocation, grid, mesh, spec)
    assert rows.shape == (5, 5)
    # Samples on the floor plane read floor collocation values only: every
    # emitted value must be one of the floor points' fluxes.
    floor_elements = {
        k for k, e in enumerate(mesh.elements) if e.normal[2] == 1.0
    }
    floor_values = {
        float(state.q[i]) for i in range(collocation.n_boundary)
        if int(collocation.boundary_element[i]) in floor_elements
    }
    for value in rows[:, 4]:
        assert float(value) in floor_values


def test_profile_outside_domain_raises(solved_case):
    mesh, grid, collocation, volume, state = solved_case
    far_wall = ProfileSpec("far", (2.0, 2.0, 0.0), (3.0, 3.0, 0.0), 3, "q")
    with pytest.raises(LineOutsideDomain):
        _emit(state, collocation, grid, mesh, far_wall)
    outside = ProfileSpec("up", (0.5, 0.5, 1.5), (0.5, 0.5, 2.5), 3, "G")
    with pytest.raises(LineOutsideDomain):
        _emit(state, collocation, grid, mesh, outside)


def test_run_refuses_a_bad_profile_before_the_solve(tmp_path, capsys):
    config = write_config(tmp_path, **one_profile(start=[0.5, 0.5, 1.5], end=[0.5, 0.5, 2.5],
                                                  quantity="G"))
    out = tmp_path / "o"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "error: profile 'p'" in capsys.readouterr().err
    assert not (out / "convergence.csv").exists()


def test_run_case_library_route_matches_cli(tmp_path):
    mesh_path = generate_case("cube", 2, tmp_path)
    config = CaseConfig.from_dict(
        {"mesh": mesh_path.name, "sigma_a": 0.4, "sigma_s": 0.6,
         "output": str(tmp_path / "lib_out")},
        base_dir=tmp_path,
    )
    result = run_case(config)
    assert result.exit_code == 0
    assert result.state.converged
    assert all(r.passed for r in result.reports)
    assert (result.output_dir / "convergence.csv").is_file()
