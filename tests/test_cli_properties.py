"""No traceback is reachable from the CLI: every pipeline subcommand, fed
count and time flags at and around the edges of their ranges, or points and
truth files of generated contents, exits with a documented code and prints
at most one line on stderr."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffal as da
from diffal.cli import main

N = 60
EDGES = ["-1", "0", "1", str(N), str(N + 1), "nan", "inf", "1e400", "x", "auto"]
GRIDS = ["0:2:1", "3:1:0.5", "0:inf:1", "1:2", "a:b:c", "300:320:10", "0:1e9:1e-9",
         "0:1:1e-16", "0:1:5e-324", "0:308.3:0.6"]
METHODS = ["land", "lund", "land-random,cbal", "", "bogus"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_properties")
    cloud, truth = da.gen_gaussians([[0.0, 0.0], [4.0, 0.0]], 0.7, [N // 2, N // 2], seed=8)
    da.save_csv(root / "points.csv", cloud)
    da.save_labels(root / "truth.txt", truth)
    return root


def _optional(draw, names):
    """`--name=value` for each name drawn to be present."""
    flags = []
    for name in names:
        value = draw(st.none() | st.sampled_from(EDGES))
        if value is not None:
            flags.append(f"{name}={value}")
    return flags


@st.composite
def command_lines(draw, root):
    points, truth, out = root / "points.csv", root / "truth.txt", root / "out"
    command = draw(st.sampled_from(["lund", "land", "purity", "scan-t", "bench"]))
    truth_flag = ["--truth", str(truth)] if draw(st.booleans()) else []
    graph = _optional(draw, ["--num-eigs", "--k"])
    if command == "lund":
        return ["lund", "--data", str(points), "--out", str(out), *truth_flag, *graph,
                *_optional(draw, ["--t", "--num-clusters"])]
    if command == "land":
        return ["land", "--data", str(points), "--out", str(out), *truth_flag, *graph,
                f"--budget={draw(st.sampled_from(EDGES))}", *_optional(draw, ["--t"])]
    if command == "purity":
        return ["purity", "--data", str(points), "--truth", str(truth), "--out", str(out),
                *graph, *_optional(draw, ["--t", "--levels"])]
    if command == "scan-t":
        return ["scan-t", "--data", str(points), "--out", str(out), *truth_flag, *graph,
                f"--t-grid={draw(st.sampled_from(GRIDS))}"]
    return ["bench", "--dataset", str(points), "--truth", str(truth), "--out", str(root / "bench"),
            f"--methods={draw(st.sampled_from(METHODS))}", *graph,
            *_optional(draw, ["--t", "--budgets", "--trials"])]


def test_every_command_line_exits_with_a_documented_code_and_one_line(files):
    @settings(max_examples=60, deadline=None)
    @given(command_lines(files))
    def check(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())

    check()


NUMBERS = st.floats(-10, 10, allow_nan=False).map(repr) | st.integers(-5, 5).map(str)
JUNK = st.sampled_from(["", " ", "nan", "inf", "-inf", "1e400", "x", "1.5e", "0x1"])


@st.composite
def points_files(draw):
    """Bytes of a points file: 0-30 rows of numbers, with junk fields, ragged
    rows and a line of invalid UTF-8 when drawn to be dirty."""
    dirty = draw(st.booleans())
    fields = NUMBERS | JUNK if dirty else NUMBERS
    width = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        ragged = dirty and draw(st.integers(0, 9)) == 0
        row_width = draw(st.integers(1, 4)) if ragged else width
        rows.append(",".join(draw(fields) for _ in range(row_width)).encode())
    if dirty and draw(st.integers(0, 3)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), b"\xff\xfe1,2")
    return b"\n".join(rows) + b"\n"


@st.composite
def truth_files(draw, n):
    """Bytes of a truth file: about n labels, all zero or with junk entries
    and a line of invalid UTF-8 when drawn so."""
    length = draw(st.sampled_from([n, n, n, max(n - 1, 0), n + 1, draw(st.integers(0, 30))]))
    kind = draw(st.sampled_from(["clean", "clean", "zeros", "dirty"]))
    if kind == "zeros":
        labels = ["0"] * length
    else:
        entries = st.integers(0, 3).map(str)
        if kind == "dirty":
            entries = entries | st.sampled_from(["", "x", "-1", "1.5", "nan", "1e3"])
        labels = [draw(entries) for _ in range(length)]
    data = "\n".join(labels).encode() + b"\n"
    if kind == "dirty" and draw(st.booleans()):
        data += b"\xc3\x28\n"
    return data


@st.composite
def generated_inputs(draw):
    points = draw(points_files())
    n = sum(1 for line in points.splitlines() if line.strip())  # the rows a reader sees
    truth = draw(st.none() | truth_files(n))
    command = draw(st.sampled_from([["lund", "--t", "10"], ["land", "--budget", "1"]]))
    return points, truth, command


def test_generated_file_contents_exit_with_a_documented_code_and_one_line(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_file_contents")
    points, truth, out = root / "points.csv", root / "truth.txt", root / "out"

    @settings(max_examples=50, deadline=None)
    @given(generated_inputs())
    def check(case):
        points_bytes, truth_bytes, command = case
        points.write_bytes(points_bytes)
        argv = [*command, "--data", str(points), "--out", str(out)]
        if truth_bytes is not None:
            truth.write_bytes(truth_bytes)
            argv += ["--truth", str(truth)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4), (case, err.getvalue())
        assert len(err.getvalue().splitlines()) <= 1, (case, err.getvalue())
        assert "Traceback" not in err.getvalue(), case

    check()
