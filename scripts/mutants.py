"""Mutation check: every listed one-edit break of the code must fail a test.

Each mutant replaces one exact piece of text in one file.  The checkout is
copied once per run, to a temporary directory; each mutant is applied to
that copy, pytest runs there with the copy's ``src`` first on
``PYTHONPATH``, and the file gets its original text back afterwards, a
timeout included.  So every mutant runs against the tree as it was when the
run began, whatever is edited in the checkout meanwhile.  A mutant is
killed when pytest reports a failing test (exit 1), and it survives when
every test passes.
By default the whole suite runs with ``-x`` and acceptance 5 deselected
(about 20 s, and it exercises only the checkers, the oracles and
phase-king-lite); a mutant of those names the tests it needs instead.

The script runs the mutants named as arguments, or every mutant when none
is named; an unknown name exits 2 before any runs.  It prints one line per
mutant, killed or survived with the seconds taken, then the kill count.  It
exits 1 if any mutant survives, if its old text does not occur exactly once,
or if pytest ends any other way: a collection or usage error, or a run past
``TIMEOUT`` seconds (a mutant that stops a loop from ending), counts as
neither.  The list only grows: a change that adds a check adds the mutant
that deletes it.

    python scripts/mutants.py                          # every mutant, about 30 minutes
    python scripts/mutants.py memo-hit-ignores-cap     # the named mutants only
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE_5 = "tests/test_acceptance.py::test_acceptance_5_target_correctness"
SUITE = ("-x", "-q", "-p", "no:cacheprovider", "--deselect", ACCEPTANCE_5)
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench-out")
TIMEOUT = 600  # seconds per pytest run; the default suite takes about 20 s


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    args: tuple = SUITE


SIM = "src/adversim/simulations.py"
ENGINE = "src/adversim/sync_engine.py"
ASYNC = "src/adversim/async_engine.py"
CHECK = "src/adversim/checking.py"
ATTACK = "src/adversim/nondecider.py"
CLI = "src/adversim/cli.py"
MUTANTS = (
    # the gather, its core and the stack tables
    Mutant("gather-delivers-own-echo", SIM,
           "            if sender == pid:\n"
           "                continue  # a process does not deliver its own message\n", ""),
    Mutant("gather-round-starts-without-own-entry", SIM,
           "own = frozenset({(pid, self.inner.message(inner, shown_round(self.inner, sim_round + 1)))})",
           "own = frozenset()"),
    Mutant("gather-delivery-ignores-drops", SIM,
           "known[q] = before[d] | after[d]", "known[q] = total"),
    Mutant("gather-period-is-inner-period", SIM,
           "self.period = 3 * inner.period", "self.period = inner.period"),
    Mutant("gather-phase-off-by-one", SIM, "if round % 3:", "if (round + 1) % 3:"),
    Mutant("gather-accepts-two-payloads", SIM,
           "if sender in delivered and delivered[sender] != payload:", "if False:"),
    Mutant("core-rule-without-victims-condition", SIM,
           "s != fault.sender or not fault.victims", "s != fault.sender"),
    Mutant("core-is-every-sender", SIM,
           "core = tuple(s for s in range(n) if s != fault.sender or not fault.victims)",
           "core = tuple(range(n))"),
    Mutant("classify-accepts-two-missed-senders", SIM,
           "    if len(missing) > 1:\n        raise EmulationLemmaViolation(",
           "    if len(missing) > 2:\n        raise EmulationLemmaViolation("),
    Mutant("projection-accepts-two-missed-senders", SIM,
           "            if len(missing) > 1:\n                raise EmulationLemmaViolation(",
           "            if len(missing) > 2:\n                raise EmulationLemmaViolation("),
    Mutant("piggyback-stack-builds-a-gather", SIM,
           '("flp", "ftr"): PiggybackWrapper,', '("flp", "ftr"): GetCoreWrapper,'),
    Mutant("flp-stack-skips-the-synchronizer", SIM,
           "protocol = SynchronizerWrapper(protocol, n)", "pass"),
    # the synchronizer buffers each current or future message it is given
    Mutant("synchronizer-keeps-stale-messages", SIM, "            if r >= round:\n",
           "            if True:\n"),
    Mutant("synchronizer-drops-duplicates", SIM,
           "                buffer = buffer[:at] + (entry,) + buffer[at:]\n",
           "                if buffer[at : at + 1] != (entry,):\n"
           "                    buffer = buffer[:at] + (entry,) + buffer[at:]\n"),
    # the round a protocol is shown: each caller of message and transition
    # shows the round modulo the declared period, and so does the memo key
    Mutant("engine-message-sees-true-round", ENGINE,
           "inbox[p] = protocol.message(state.internal, shown)",
           "inbox[p] = protocol.message(state.internal, round)"),
    Mutant("engine-transition-sees-true-round", ENGINE,
           "protocol.transition(state.internal, shown, received)",
           "protocol.transition(state.internal, config.round, received)"),
    Mutant("gather-message-sees-true-round", SIM,
           "self.inner.message(inner, shown_round(self.inner, sim_round + 1))",
           "self.inner.message(inner, sim_round + 1)"),
    Mutant("synchronizer-transition-sees-true-round", SIM,
           "self.inner.transition(inner, shown_round(self.inner, round), received)",
           "self.inner.transition(inner, round, received)"),
    Mutant("synchronizer-message-sees-true-round", SIM,
           "self.inner.message(inner, shown_round(self.inner, round))",
           "self.inner.message(inner, round)"),
    Mutant("config-key-holds-true-round", "src/adversim/core.py",
           "return shown_round(protocol, config.round), config.states",
           "return config.round, config.states"),
    # the piggyback: its idle step bootstraps round 1, it refuses a send to
    # self, its ledger is read from the kept configurations and expects a
    # unicast at its addressee alone, and its audit checks the relay bound
    Mutant("piggyback-skips-idle-step", SIM, "for incoming in arrived or [None]:",
           "for incoming in arrived:"),
    Mutant("piggyback-delivers-others-unicasts", SIM,
           "            if dest == pid or dest is None\n", "            if True\n"),
    Mutant("piggyback-cap-refuses-its-own-limit", SIM,
           "if sum(map(len, logs)) > MAX_SIMULATED_MESSAGES:",
           "if sum(map(len, logs)) >= MAX_SIMULATED_MESSAGES:"),
    Mutant("relay-bound-ignored", SIM,
           "return StackAudit([e.record() for e in ledger], not late, summary)",
           "return StackAudit([e.record() for e in ledger], True, summary)"),
    Mutant("relay-bound-one-round-late", SIM,
           "rounds[-1] > rounds[0] + 1", "rounds[-1] > rounds[0] + 2"),
    Mutant("ledger-credits-unicast-to-everyone", SIM,
           "elif dest is None or dest == q:", "elif True:"),
    Mutant("ledger-delivers-own-messages", SIM,
           "elif dest is None or dest == q:", "if dest is None or dest == q:"),
    Mutant("ledger-sent-round-off-by-one", SIM,
           "sent[p].append((dest, r, []))", "sent[p].append((dest, r - 1, []))"),
    Mutant("ledger-unicast-expects-everyone", SIM,
           "        if self.dest is None:\n"
           "            return tuple(q for q in range(n) if q != self.sender)\n"
           "        return (self.dest,)\n",
           "        return tuple(q for q in range(n) if q != self.sender)\n"),
    Mutant("piggyback-sends-to-itself", SIM,
           "        if any(dest == pid for dest, _ in outbox):\n"
           '            raise AdversimError("a process never sends to itself")\n', ""),
    # the protocol registry
    Mutant("registry-naive-majority-is-phase-king-lite", "src/adversim/protocols.py",
           '"naive-majority": NaiveMajority,', '"naive-majority": PhaseKingLite,'),
    Mutant("registry-constant-0-outputs-1", "src/adversim/protocols.py",
           '"constant-0": lambda n: Constant(0),', '"constant-0": lambda n: Constant(1),'),
    # liveness: a silenced process never sees n votes, so no benign run decides
    Mutant("phase-king-lite-needs-n-unanimous-votes", "src/adversim/protocols.py",
           "if size >= self.n - 1 and", "if size >= self.n and",
           ("-x", "-q", "-p", "no:cacheprovider", ACCEPTANCE_5)),
    # trace validation: replayed rounds, fault senders, header sizes
    Mutant("validate-skips-round-check", "src/adversim/core.py",
           "elif step.round != rep.round:", "elif False:"),
    Mutant("fault-accepts-sender-n", "src/adversim/core.py",
           "if not 0 <= self.sender < n:", "if not 0 <= self.sender <= n:"),
    Mutant("trace-header-accepts-n-below-2", "src/adversim/core.py",
           "if not _is_int(n) or n < 2:", "if not _is_int(n) and n < 2:"),
    # the command line silences any process, process 0 included, and refuses
    # each malformed spec as a usage error naming its flag
    Mutant("silent-adversary-refuses-process-0", CLI, "if not 0 <= p < n:", "if not 0 < p < n:"),
    Mutant("silent-adversary-accepts-process-n", CLI, "if not 0 <= p < n:", "if not 0 <= p <= n:"),
    Mutant("silent-adversary-accepts-a-non-integer", CLI,
           '        except ValueError:\n            raise UsageError(f"bad --adversary spec',
           '        except TypeError:\n            raise UsageError(f"bad --adversary spec'),
    Mutant("inputs-accept-a-non-integer", CLI,
           '        except ValueError:\n            raise UsageError(f"bad --inputs',
           '        except TypeError:\n            raise UsageError(f"bad --inputs'),
    Mutant("inputs-accept-any-length", CLI, "if len(bits) != args.n or any(", "if any("),
    Mutant("inputs-default-without-seed", CLI,
           '    if args.seed is None:\n'
           '        raise UsageError("provide --inputs or --seed for random inputs")\n', ""),
    Mutant("adversary-random-needs-no-seed", CLI,
           '        if seed is None:\n'
           '            raise UsageError("--adversary random requires --seed")\n', ""),
    Mutant("scheduler-random-needs-no-seed", CLI,
           '        if args.seed is None:\n'
           '            raise UsageError("--scheduler random requires --seed")\n', ""),
    Mutant("crash-accepts-a-malformed-spec", CLI,
           '    except ValueError:\n        raise UsageError(f"bad --crash',
           '    except TypeError:\n        raise UsageError(f"bad --crash'),
    # under --restricted, run refuses every fault that silences its sender
    Mutant("restricted-run-accepts-a-silent-adversary", CLI,
           "        if restricted:\n"
           '            raise UsageError(f"--restricted forbids full silence: --adversary {spec}")\n',
           ""),
    Mutant("restricted-run-accepts-a-full-silence-script", CLI,
           "        for i, fault in enumerate(faults if restricted else (), 1):\n"
           "            if fault == silence(fault.sender, n):\n"
           '                raise UsageError(f"--restricted forbids full silence: --adversary {spec} '
           'fault {i}")\n', ""),
    # a failed consensus check and an invalid report are falsy
    Mutant("consensus-check-is-always-truthy", "src/adversim/core.py",
           "    def __bool__(self) -> bool:\n        return self.ok\n", ""),
    Mutant("validation-report-is-always-truthy", "src/adversim/core.py",
           "    def __bool__(self) -> bool:\n        return self.valid\n", ""),
    # an expansion builds each distinct child once
    Mutant("expansion-keeps-equal-receiver-options", ENGINE,
           "            if nxt not in options:\n", "            if True:\n"),
    Mutant("expansion-keeps-children-two-senders-share", ENGINE,
           "if child not in seen and not (restricted", "if not (restricted"),
    Mutant("restricted-expansion-keeps-full-silence", ENGINE,
           "if child not in seen and not (restricted and len(victims) == n - 1):",
           "if child not in seen:"),
    # one model rule: ``_model`` refuses an unknown model and a restricted
    # ftr, and each caller that needs no fault type from it still calls it
    Mutant("expansion-accepts-an-unknown-model", ENGINE,
           '    if model != "ftr":\n'
           '        raise AdversimError(f"unknown synchronous model {model!r}")\n', ""),
    Mutant("expansion-accepts-restricted-ftr", ENGINE,
           '    if restricted:\n'
           '        raise AdversimError("restricted mode applies to the fail-to-send model only")\n',
           ""),
    Mutant("expansion-skips-the-model-rule", ENGINE,
           "    _model(model, restricted)\n    shown, inbox, afters = _expansion(",
           "    shown, inbox, afters = _expansion("),
    # an expansion table shares a transition only under all it reads: the
    # shown round, the broadcast, the receiver and its state (and the missed sender)
    Mutant("table-key-drops-receiver-state", ENGINE,
           "(shown, broadcast, q, state)", "(shown, broadcast, q)"),
    Mutant("table-key-drops-round", ENGINE,
           "(shown, broadcast, q, state)", "(broadcast, q, state)"),
    Mutant("table-key-drops-receiver", ENGINE,
           "(shown, broadcast, q, state)", "(shown, broadcast, state)"),
    # the fault sources refuse an unknown model
    Mutant("random-faults-accept-an-unknown-model", ENGINE,
           "    _model(model, restricted)\n\n    def draw_fts():", "\n    def draw_fts():"),
    Mutant("silence-accepts-an-unknown-model", ENGINE,
           '    _model(model)\n    if model == "fts":\n', '    if model == "fts":\n'),
    # the fairness audit checks each message once, at its due step
    Mutant("audit-due-step-one-late", ASYNC,
           "due.append((now + fairness_window, sent, state.next_index))",
           "due.append((now + fairness_window + 1, sent, state.next_index))"),
    # a crash empties the crashed queue and later sends skip it, so every
    # queued message is one a live process can receive
    Mutant("crash-keeps-its-queue", ASYNC,
           "        queues = queues[:pid] + ((),) + queues[pid + 1 :]\n", ""),
    Mutant("sends-queue-to-crashed", ASYNC,
           "if d != crashed:  # a crashed process receives nothing", "if True:"),
    Mutant("audit-orders-sends-as-tuples", ASYNC,
           "for m in sorted(overdue, key=_index):", "for m in sorted(overdue):"),
    # the run loop owns the crash directive: it crashes the process once the
    # directive's step count is reached, and only while nobody has crashed;
    # round-robin then skips the crashed process
    Mutant("run-async-crashes-one-step-late", ASYNC,
           "state.step_count >= crash[1]", "state.step_count > crash[1]"),
    Mutant("run-async-ignores-an-earlier-crash", ASYNC,
           "crash is not None and state.crashed is None and", "crash is not None and"),
    Mutant("round-robin-steps-the-crashed-process", ASYNC,
           "if pid == state.crashed:", "if False:"),
    # the exhaustive search checks every child it builds, and rebuilds a
    # violation's path from each configuration's first parent
    Mutant("explorer-checks-only-new-children", CHECK,
           "                if explored == budget:\n",
           "                if child in found:\n"
           "                    continue\n"
           "                if explored == budget:\n"),
    Mutant("explorer-path-drops-final-fault", CHECK, "path = [fault]", "path = []"),
    Mutant("explorer-keeps-last-parent", CHECK,
           "found.setdefault(child, (config, fault))", "found[child] = (config, fault)"),
    # the attack: the chain scan checks c_j's silent decision before it
    # returns c_j, the extension tries full silence before the chain, a memo
    # hit still counts against the cap, and the lasso keys on the pivot
    Mutant("chain-scan-skips-silent-check", ATTACK, "    if sil != ff:\n", "    if True:\n"),
    Mutant("extension-tries-only-full-silence", ATTACK,
           "if ff != witness.silent_decision:", "if True:"),
    Mutant("memo-hit-ignores-cap", ATTACK, "        if rounds > cap:\n", "        if False:\n"),
    Mutant("lasso-key-drops-pivot", ATTACK,
           "(config_key(witness.config, protocol), witness.process, witness.ff_decision,",
           "(config_key(witness.config, protocol), witness.ff_decision,"),
    # with no flip on the input chain, the attack's validity counterexample
    # runs the unanimous 1 - b vector and reads both probes from the memo
    Mutant("counterexample-from-the-b-vector", ATTACK,
           "inputs = (1 - failure_free_decision(zeros, protocol, cap, memo=memo).decision,) * n",
           "inputs = (failure_free_decision(zeros, protocol, cap, memo=memo).decision,) * n"),
    Mutant("counterexample-probes-without-memo", ATTACK,
           "used = failure_free_decision(config, protocol, cap, memo=memo).rounds_used",
           "used = failure_free_decision(config, protocol, cap).rounds_used"),
    # the library's own argument checks, which the command line never reaches
    Mutant("exhaustive-accepts-depth-0", CHECK,
           '    if depth < 1:\n        raise AdversimError("depth must be >= 1")\n    explored = 0\n',
           "    explored = 0\n"),
    Mutant("fuzz-accepts-runs-0", CHECK,
           '    if runs < 1:\n        raise AdversimError("runs must be >= 1")\n', ""),
    Mutant("fuzz-accepts-depth-0", CHECK,
           '        raise AdversimError("runs must be >= 1")\n'
           '    if depth < 1:\n        raise AdversimError("depth must be >= 1")\n',
           '        raise AdversimError("runs must be >= 1")\n'),
    Mutant("run-accepts-a-negative-horizon", ENGINE,
           '    if horizon < 0:\n        raise AdversimError("horizon must be >= 0")\n', ""),
    Mutant("run-async-accepts-a-negative-horizon", ASYNC,
           '    if horizon < 0:\n        raise AdversimError("horizon must be >= 0")\n', ""),
    Mutant("oracle-accepts-cap-0", ATTACK,
           '    if cap < 1:\n        raise AdversimError("oracle cap must be >= 1")\n', ""),
    Mutant("initial-dependent-accepts-one-process", ATTACK,
           '    if n < 2:\n        raise AdversimError("need n >= 2")\n', ""),
    Mutant("attack-accepts-rounds-0", ATTACK,
           '    if rounds < 1:\n        raise AdversimError("rounds must be >= 1")\n', ""),
    # a script path is everything after "script:", colons included
    Mutant("adversary-script-path-stops-at-a-colon", CLI,
           'read_step_script(spec.split(":", 1)[1], model)',
           'read_step_script(spec.split(":", 2)[1], model)'),
    Mutant("scheduler-script-path-stops-at-a-colon", CLI,
           'read_step_script(spec.split(":", 1)[1], "flp")',
           'read_step_script(spec.split(":", 2)[1], "flp")'),
)


def run_mutant(mutant: Mutant, copy: Path) -> str:
    """Apply ``mutant`` to ``copy``, a copy of the checkout, run its tests
    there, and restore the copy; returns "killed", "survived" or what went
    wrong."""
    target = copy / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return f"old text occurs {text.count(mutant.old)} times in {mutant.path}"
    target.write_text(text.replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", *mutant.args], cwd=copy,
                              env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        target.write_text(text)
        # examples saved by one mutant's failures must not steer the next run
        shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    return {0: "survived", 1: "killed"}.get(proc.returncode, f"pytest exit {proc.returncode}")


def main(names: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"mutants.py: unknown mutant {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in names] or MUTANTS
    killed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        for mutant in chosen:
            start = time.perf_counter()
            outcome = run_mutant(mutant, copy)
            killed += outcome == "killed"
            print(f"{mutant.name:48} {outcome:10} {time.perf_counter() - start:6.1f} s",
                  flush=True)
    print(f"{killed} of {len(chosen)} mutants killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
