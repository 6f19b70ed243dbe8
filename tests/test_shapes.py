"""The shape catalogue: every input that CI builds stays the same, byte for byte."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shapes

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

# the sha256 of the edge list behind each CI call ``python tests/shapes.py NAME SIZE...``, as the
# inline generators that the catalogue replaced wrote it; the inputs of the RSS gates have no
# other pin
CI_INPUTS = {
    ("caterpillar", 1000): "7f3953f745fae887f5326d3ad3a58cab921cebcb9ead6022db180161181a31bb",
    ("complete_bipartite", 40): "faa8fe81dc43eb3632267a394a96942d52a9e74ba972c649c8812e8b4f3b0525",
    ("eared_tree", 80000, 20000): "cc48f119297e1b16be480d3d75e6b7705da24e05b85d13b9649b4946ab345014",
    ("eared_cycle", 3001): "3da9a90e5811416e32a685b19076633d547599b762ea7381f5aec49e9033caef",
    ("double_star", 49998): "12b5b92d7d14a1b48d1d8ee7a958246400891fd4e391ea80cfb83f0d618ed721",
    ("windmill", 49999): "cefb761f57d1ea1ad94d056517c05f76556e54628a776558a399df8659b9eafe",
    ("hub_with_ears", 33333): "4e0a87591155dabe09e3d8c05bf562eef2f7572f45e2570d3d56f996a7ca9d93",
    ("cycle", 100000): "d9219fc50220115c3030e1654d6ae24e3a448ed216064ca36687aebeadad3855",
    ("path_corona", 50000): "73e5fc9bc31fc29b3ca2681813ae6f122463ec298ca088a4d91d7623c8442e5c",
    ("eared_cycle", 50000): "cd6303fdf79bcac76f43d6a8e937b44aa8e0dff51b86322e3e6cb0c31bd0593f",
    ("double_star", 1000): "a2bdfc20b2cd216ab5dc3d44f835fa124a9e050c782050fe984923afa41feaea",
    ("eared_cycle", 10000): "7c775c3b7623f04935757d3010d057e013c5cd615a27233ab8763f8247372c1d",
    ("eared_tree", 3200, 800): "4ce3ab7e40669355276f216ff1251c1e0f60820ea0800f9fdd2f5f49b4e7291d",
    ("eared_cycle", 201): "0ed0fe666620e6643584f8d4245853f2ab36e09f779090343542eb0ddc7506aa",
    ("complete_bipartite", 13): "445b2eaed84d968c0d37dc1894750058421615dcc6bfcbc0976b82e5e43a9992",
    ("complete_bipartite", 3, 5): "05d4742b206a264f3080964fcd2c78b4c060729aac6eace6269290ec17a680d5",
}


@pytest.mark.parametrize("call, digest", CI_INPUTS.items(), ids=["-".join(map(str, call)) for call in CI_INPUTS])
def test_ci_inputs_are_pinned(call, digest):
    name, *sizes = call
    text = shapes.edge_list(*shapes.SHAPES[name](*sizes))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_ci_builds_exactly_the_pinned_inputs():
    text = WORKFLOW.read_text()
    assert "python -c" not in text
    calls = re.findall(r"python tests/shapes\.py (\w+)((?: \d+)+)", text)
    assert {(name, *map(int, sizes.split())) for name, sizes in calls} == set(CI_INPUTS)


def test_command_line_prints_the_edge_list():
    script = Path(shapes.__file__)
    run = subprocess.run([sys.executable, script, "complete_bipartite", "3", "5"], capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, shapes.edge_list(*shapes.complete_bipartite(3, 5)))
    run = subprocess.run([sys.executable, script, "square"], capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("usage: shapes.py NAME SIZE...")

