"""Every function of the package runs in a pinned workload or is listed here.

``reach_trace.py`` traces the 216 pinned CLI invocations and the seed-1 op
lists of the ``model_block`` and ``sweep`` workloads in a fresh interpreter
and names the functions no call reached.  That set must be exactly
``UNREACHED``: a new function that nothing runs, or a listed one that runs
or is gone, fails the test until the list is changed with it.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

UNREACHED = {
    # statements of the paper (README, Library)
    "diagnostics.findim_dimension_rank_one",
    "diagnostics.singular_set",
    "torus_chambers.fixed_components_k0",
    "category_o.semisimplicity",
    "category_o.annihilator_index",
    "category_o.top_cohomology_check",
    "category_o.legal_removals",
    "partitions.remove_corner",
    "partitions.removable_corners",
    "partitions.transpose",
    "partitions.enumerate_multipartitions",
    "partitions.divide_with_remainder",
    "partitions.quotient_size",
    "ideal_lattice.enumerate_ideals",
    # the module-level Ext routes and the modules they read (README, Library)
    "quiver_engine.ext_groups",
    "quiver_engine.ext_to_simple",
    "quiver_engine.costandard",
    "quiver_engine.tilting",
    "quiver_engine.submodule",
    # helpers and views that only the functions above, the tests or a traced
    # benchmark run read
    "category_o._legal_removals",  # legal_removals' generator; tests/all_paths_search.py
    "quiver_engine.Resolution.multiplicity",  # ext_to_simple's reader
    "quiver_engine.ModelAlgebra.arrows",  # the arrows' basis indices
    "quiver_engine.QuiverModule.act",  # arrows keyed by basis index; perfbench/tracer.py
    "torus_chambers.Wall.evaluate",  # a wall's linear form at a cocharacter
    "diagnostics._Irrational.__repr__",  # the text of IRRATIONAL in a message
    # the console script, which calls cli.main
    "cli.entry",
}


def test_only_the_listed_functions_go_unreached():
    out = subprocess.run([sys.executable, str(HERE / "reach_trace.py")],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert sorted(json.loads(out.stdout)) == sorted(UNREACHED)
