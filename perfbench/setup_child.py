"""One cold set-up in a fresh interpreter, timed from inside.

    python3 perfbench/setup_child.py <src dir> <run config>

Imports amsizer.cli from <src dir>, then runs load_config, build_state
and build_backend on the config, under a speed probe whose kernel needs
no numpy (see speed.py).  Prints the calibrated seconds of each phase,
and the raw wall seconds of all three, as JSON.  Exits 3 if amsizer
would be imported from anywhere else.
"""

import json
import os
import sys

import speed

src, config = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)


def import_cli():
    import amsizer.cli

    return amsizer.cli


probe = speed.SpeedProbe(speed.python_kernel, speed.NOMINAL_PYTHON_KERNEL_S)
with probe:
    cli, import_wall, import_s = probe.run(import_cli)
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(3)
    cfg, load_wall, load_s = probe.run(lambda: cli.load_config(config))
    _, build_wall, build_s = probe.run(lambda: (cli.build_state(cfg), cli.build_backend(cfg)))
print(json.dumps({"import_s": import_s, "load_s": load_s, "build_s": build_s,
                  "setup_s": import_s + load_s + build_s,
                  "wall_s": import_wall + load_wall + build_wall}))
