"""Start-up pins: what importing :mod:`repro` and running its common paths load.

Every prediction starts a fresh interpreter (``repro simulate``, ``repro
trace ...``, ``repro campaign``, each benchmark worker), so what a run
imports is part of its cost.  The packages export their names lazily
(:mod:`repro._exports`), and an optional path (the emulator, a process pool,
tracing, a persistent cache, a table or CSV export) imports what it needs
where it runs.  Each pin below runs in a fresh interpreter.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from importlib.util import resolve_name

import pytest
from loaded_modules import loaded_after_import, loaded_after_running

import repro

#: ``repro`` and its subpackages, each with lazy exports
PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg)

#: a predictive run of a small application, nothing optional attached
PREDICTIVE_RUN = (
    "from repro.cluster import custom_cluster\n"
    "from repro.simulator import Application, Simulator\n"
    "from repro.workloads import ring_allgather\n"
    "application = ring_allgather(Application(num_tasks=4, name='ring'), 1 << 20)\n"
    "cluster = custom_cluster(num_nodes=4, cores_per_node=1, technology='ethernet')\n"
    "report = Simulator.predictive(cluster).run(application)\n"
    "assert report.total_time > 0, report.total_time\n"
)

#: the emulator, and the analysis, campaign and trace tools no prediction runs
NOT_PREDICTIVE = ("repro.network.allocator", "repro.network.sharing", "repro.campaign",
                  "repro.analysis", "repro.trace.diff", "repro.trace.replay",
                  "repro.trace.stream", "concurrent.futures.process")


def one_point_campaign(workload: dict) -> str:
    """Source of an inline run of a one-scenario campaign."""
    return (
        "from repro.campaign import CampaignRunner, CampaignSpec\n"
        f"spec = CampaignSpec.from_dict({{'name': 'one', 'workloads': [{workload!r}],\n"
        "                               'host_counts': [4]})\n"
        "assert len(spec.scenarios()) == 1\n"
        "store = CampaignRunner(spec, max_workers=1).run()\n"
        "assert len(store.results) == 1 and not store.failures, store.failures\n"
    )


def cli_run(*argv: str) -> str:
    """Source of ``python -m repro <argv>`` that must exit with status 0."""
    return (
        "import runpy\n"
        f"sys.argv = ['repro', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0, stop.code\n"
    )


def matching(modules, prefixes):
    """The ``modules`` that are one of ``prefixes`` or lie below one."""
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)]


class TestStartup:
    def test_import_repro_loads_only_the_export_helper(self):
        assert loaded_after_import(["repro"], "repro") == ["repro", "repro._exports"]

    def test_importing_every_package_loads_no_module(self):
        loaded = loaded_after_import(PACKAGES, "repro")
        assert loaded == sorted(PACKAGES + ["repro._exports"])

    def test_a_predictive_run_loads_no_emulator_campaign_or_analysis(self):
        loaded = loaded_after_running(PREDICTIVE_RUN, "repro", "concurrent")
        assert "repro.simulator.engine" in loaded  # the run really ran
        assert matching(loaded, NOT_PREDICTIVE) == []

    @pytest.mark.parametrize("workload", [
        {"kind": "collective", "name": "ring-allgather", "params": {"size": "64K"}},
        {"kind": "synthetic", "name": "random"},
    ], ids=["application", "graph"])
    def test_an_inline_campaign_loads_no_persistence_analysis_or_pool(self, workload):
        loaded = loaded_after_running(one_point_campaign(workload), "repro", "concurrent")
        assert "repro.campaign.runner" in loaded
        assert matching(loaded, ("repro.campaign.persistence", "repro.analysis",
                                 "concurrent.futures.process")) == []

    def test_help_loads_neither_the_simulator_nor_numpy(self):
        loaded = loaded_after_running(cli_run("--help"), "repro", "numpy")
        assert "repro.cli" in loaded
        assert matching(loaded, ("repro.simulator", "numpy")) == []

    def test_predict_loads_no_simulator_campaign_or_calendar(self):
        """Pricing one static scheme needs the model, not the simulation stack."""
        loaded = loaded_after_running(cli_run("predict", "--scheme", "0->1 0->2"), "repro")
        assert "repro.core.registry" in loaded
        assert matching(loaded, ("repro.simulator", "repro.campaign",
                                 "repro.network.fluid")) == []


def declared_exports(package: str):
    """``(defining module, name)`` for every name the package's
    ``lazy_exports`` call declares, read from its source."""
    module = importlib.import_module(package)
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports":
            exports = ast.literal_eval(node.args[1])
            return [(resolve_name(origin, package), name)
                    for origin, names in exports.items() for name in names]
    raise AssertionError(f"{package} declares no lazy exports")


def defines(module_name: str, name: str) -> bool:
    """Whether ``name`` is bound by a definition at the module's top level
    (not by an import)."""
    tree = ast.parse(inspect.getsource(importlib.import_module(module_name)))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return True
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return True
    return False


@pytest.mark.parametrize("package", PACKAGES)
class TestLazyExports:
    def test_every_export_is_its_defining_modules_object(self, package):
        module = importlib.import_module(package)
        declared = declared_exports(package)
        names = [name for _, name in declared]
        assert len(set(names)) == len(names)
        assert sorted(set(module.__all__) - {"__version__"}) == sorted(names)
        for origin, name in declared:
            assert defines(origin, name), f"{origin} does not define {name}"
            assert getattr(module, name) is vars(importlib.import_module(origin))[name]

    def test_dir_lists_every_export(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_an_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        assert not hasattr(module, "no_such_name")
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})
