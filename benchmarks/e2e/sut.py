"""The program under test, as one fresh child process.

``python3 sut.py <spec.json>`` does what a ``python -m repro serve``
user pays for: import the package, build a :class:`Platform`, create
and run every dashboard of the flow-file group from the files on disk,
and put a real :class:`ServingServer` on a loopback port.  It prints
one JSON line with the port when the listener is up; the parent times
spawn → first ``/ds/`` bytes (the cold journey) or keeps the child as
the live server for the other phases.  When the parent closes stdin the
child drains the server, reaps the warm pool and prints its peak RSS.

:func:`bring_up` is that journey; the traced run calls the same
function in-process with a span factory, so both time one definition.
"""

from __future__ import annotations

import json
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, ContextManager


def ipl_dims() -> dict[str, Any]:
    """Appendix A keeps the dimension tables in the platform: the first
    dashboard of the IPL group gets them inline."""
    from repro.workloads import ipl

    return {
        "dim_teams": ipl.dim_teams_table(),
        "team_players": ipl.team_players_table(),
        "lat_long": ipl.lat_long_table(),
    }


def bring_up(
    spec: dict[str, Any],
    span: Callable[[str], ContextManager] = lambda _name: nullcontext(),
) -> tuple[Any, Any, Any]:
    """Create and run every dashboard of ``spec``, then listen.

    Returns ``(platform, server, first dashboard's RunReport)``.
    """
    from repro import EnvironmentProfile, Platform
    from repro.server import serve
    from repro.server.serving import ServingConfig

    platform = Platform()
    inline = ipl_dims() if spec["ipl_dims"] else None
    work = Path(spec["work"])
    reports = []
    for dashboard in spec["dashboards"]:
        name = dashboard["name"]
        with span("platform.create"):
            platform.create_dashboard(
                name,
                (work / f"{name}.flow").read_text(encoding="utf-8"),
                data_dir=work,
                inline_tables=None if reports else inline,
                environment=EnvironmentProfile.desktop(),
            )
        with span("platform.run"):
            reports.append(platform.run_dashboard(name, **dashboard["run"]))
    with span("server.start"):
        server = serve(
            platform,
            port=0,
            config=ServingConfig(request_timeout=30.0),
        ).start_background()
    return platform, server, reports[0]


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    platform, server, _report = bring_up(spec)
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    sys.stdin.read()  # the parent closes stdin to stop the child
    server.shutdown()
    platform.close_pool()
    usage = {
        "self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss,
    }
    print(json.dumps(usage), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
