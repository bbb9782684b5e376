import importlib
import inspect
import pkgutil

import opdkit


def test_all_names_are_defined():
    # every name a module exports exists in it, so a deletion cannot leave one behind
    modules = [m.name for m in pkgutil.iter_modules(opdkit.__path__, "opdkit.")]
    assert "opdkit.cli" in modules and "opdkit.projection" in modules
    missing = {name: [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
               for name in modules for module in [importlib.import_module(name)]}
    assert {name: names for name, names in missing.items() if names} == {}


# Argument names that perfbench/spans.py reads, by name, from the calls it
# traces, at the names the calling code looks the functions up by.
TRACED_ARGUMENTS = {
    "opdkit.decomposition:build_basis": {"references", "max_delay"},
    "opdkit.decomposition:Decomposer.__init__": {"s", "n", "max_delay"},
    "opdkit.cli:oa_sweep": {"grid"},
    "opdkit.cli:dsa_sweep": {"grid"},
    "opdkit.cli:read_wav": {"path"},
    "opdkit.reporting:read_wav": {"path"},
    "opdkit.cli:write_wav": {"path"},
    "opdkit.cli:load_triplet": {"t"},
    "opdkit.cli:write_sweep_csv": {"rows", "error_rows"},
    # wrapped, though no argument is read: the name must still be looked up there
    "opdkit.decomposition:project": set(),
    **{f"opdkit.cli:{name}": set() for name in (
        "enhance", "load_corpus_manifest", "write_corpus_manifest", "write_run_manifest",
        "summarize_rows", "write_summary_csv", "line_plot", "write_plot", "compute_metrics")},
}


def test_traced_argument_names():
    # a rename fails here before it breaks perfbench/run.py --trace 1
    missing = {}
    for site, names in TRACED_ARGUMENTS.items():
        module, _, path = site.partition(":")
        function = importlib.import_module(module)
        for attribute in path.split("."):
            function = getattr(function, attribute)
        missing[site] = names - set(inspect.signature(function).parameters)
    assert {site: names for site, names in missing.items() if names} == {}
