"""Every bad input ends in exit 2 or 3 through the one PisimError root."""

import argparse
import importlib
import pkgutil

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pisim
from pisim.cli import ExperimentSpec, build_parser, main
from pisim.errors import PisimError

# Errors that mean a bug in pisim, not bad input: a traceback is right.
INTERNAL_ERRORS = {"ProtocolHang", "BundleConsumed", "BundleMismatch", "WrongKey"}


def _pisim_modules():
    for info in pkgutil.walk_packages(pisim.__path__, "pisim."):
        if info.name != "pisim.__main__":  # importing it runs the CLI
            yield importlib.import_module(info.name)


def test_every_pisim_error_is_a_pisim_error_with_exit_2_or_3():
    errors = {
        obj
        for module in _pisim_modules()
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == module.__name__
    }
    assert INTERNAL_ERRORS <= {e.__name__ for e in errors}
    for error in errors:
        if error.__name__ not in INTERNAL_ERRORS:
            assert issubclass(error, PisimError), error
            assert error.exit_code in (2, 3), error


# A path under a regular file, which no command can write or read. No
# value is an integer above 1, so `sweep --jobs` never starts a pool.
UNWRITABLE = "a_file/x"
VALUES = ["nan", "inf", "-inf", "-1", "0", "", "1e308", "1e-300", "%junk", UNWRITABLE]
BASE_ARGS = {
    ("simulate",): ["--runs", "1", "--horizon", "10"],
    ("sweep",): ["--runs", "1", "--horizon", "10"],
    ("verify",): ["--trials", "1"],
}


def _commands(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, prefix + (name,))
            return
    yield prefix, parser


def _fuzz_argvs():
    """Each flag and positional of every command, one at a time, with each value.

    Values go as --flag=value and after --, so that argparse hands even
    "-inf" to the command.
    """
    argvs = []
    for command, parser in _commands(build_parser()):
        base = [*command, *BASE_ARGS.get(command, [])]
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if not action.option_strings:
                argvs += [[*base, "--", v] for v in VALUES]
            elif action.nargs == 0:
                argvs.append([*base, action.option_strings[0]])
            else:
                argvs += [[*base, f"{action.option_strings[0]}={v}"] for v in VALUES]
            if "--set" in action.option_strings:
                argvs += [
                    [*base, f"--set={key}={v}"]
                    for key in ExperimentSpec.__dataclass_fields__
                    for v in VALUES
                ]
    return argvs


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=st.sampled_from(_fuzz_argvs()))
def test_bad_input_exits_0_2_or_3(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").touch()
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        rc = exc.code
    assert rc in (0, 2, 3), argv
