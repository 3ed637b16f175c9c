"""Answer checking, outside the timed region.

Each job's stdout report is reduced to its answer fields (dimension,
verdict, exact discrepancy, tree status, ...), never compared as bytes, so
extra report blocks such as work counters do not count as failures.  An
answer must

* come with the expected exit code,
* pass the command's own exact re-checks: every certificate re-verifies
  with ``verify_certificate``, every built tree with
  ``intersection_tree_verify``, every subtree carries its label, and so on,
* equal the answer of the same job earlier in the run (determinism), and
* equal the stored reference answer when the job has one.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction


def _flags(argv):
    """Flag values of a command line, merged with its --config file."""
    flags = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--") and i + 1 < len(argv):
            flags[tok[2:].replace("-", "_")] = argv[i + 1]
    if "config" in flags:
        with open(flags["config"]) as fh:
            flags.update(json.load(fh))
    return flags


def _digest(doc):
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


def _process(text):
    from gapdim import Emission, IIDUniformSpec, MarkovSpec, RotationSpec, golden_rotation_angle

    if text == "iid":
        return IIDUniformSpec()
    if text == "rotation":
        return RotationSpec(theta=golden_rotation_angle())
    with open(text) as fh:
        doc = json.load(fh)
    emissions = [
        Emission.point(Fraction(e["at"])) if e["kind"] == "point"
        else Emission.uniform(Fraction(e["lo"]), Fraction(e["hi"]))
        for e in doc["emissions"]
    ]
    transition = tuple(tuple(Fraction(p) for p in row) for row in doc["transition"])
    return MarkovSpec(transition=transition, emissions=tuple(emissions))


class Checker:
    def __init__(self, references=None):
        self.references = references or {}
        self.seen = {}

    @staticmethod
    def _class(text):
        from gapdim.funclass import generate, load_class

        return load_class(text) if os.path.exists(text) else generate(text)

    def answer(self, job, argv, rc, stdout):
        """(answer, problems) for one finished job."""
        if rc != job.rc:
            return None, [f"exit code {rc}, expected {job.rc}"]
        try:
            report = json.loads(stdout)["report"]
        except (ValueError, KeyError, TypeError):
            return None, ["stdout is not a JSON report"]
        flags = _flags(argv)
        try:
            return getattr(self, "_" + job.command.replace("-", "_"))(report, flags, rc)
        except (KeyError, TypeError, ValueError) as exc:
            return None, [f"malformed report: {exc!r}"]

    def check(self, job, argv, rc, stdout):
        """Problems found with one finished job; empty when it is correct."""
        answer, problems = self.answer(job, argv, rc, stdout)
        if answer is None:
            return problems
        earlier = self.seen.setdefault(job.key, answer)
        if earlier != answer:
            problems.append("answer differs from the same job earlier in the run")
        ref = self.references.get(job.key)
        if ref is not None and ref != answer:
            problems.append(f"answer {answer} differs from reference {ref}")
        return problems

    # -- per command: (answer fields, problems) ------------------------------

    def _dim(self, report, flags, rc):
        from gapdim.exactset import parse_rational
        from gapdim.shatter import ShatterCertificate, verify_certificate

        problems = []
        cert = report["certificate"]
        dim = report["dimension"]
        if cert is None:
            if dim != 0:
                problems.append("positive dimension without a certificate")
        else:
            c = ShatterCertificate.from_json(cert)
            if len(c.points) != dim:
                problems.append("certificate size differs from the dimension")
            F = self._class(flags["class"])
            if not verify_certificate(F, parse_rational(flags["gamma"]), c):
                problems.append("certificate does not verify")
        answer = {"dimension": dim, "dimension_label": report["dimension_label"]}
        return answer, problems

    def _verify(self, report, flags, rc):
        ok = report["verified"]
        return {"verified": ok}, [] if (rc == 0) == ok else ["verdict and exit code disagree"]

    def _build(self, report, flags, rc):
        from gapdim.exactset import parse_rational
        from gapdim.treelab import CompleteTree, intersection_tree_verify

        if report["status"] != "ok":
            return {"status": report["status"]}, []
        tree = CompleteTree.from_json(report["tree"])
        functions = report["functions"]
        problems = []
        if tree.depth != int(flags["depth"]):
            problems.append("tree has the wrong depth")
        F = self._class(flags["class"])
        if not intersection_tree_verify(tree, F, parse_rational(flags["gamma"]), functions):
            problems.append("built tree does not verify")
        return {"status": "ok", "functions": functions}, problems

    def _subtree(self, report, flags, rc):
        from gapdim.treelab import CompleteTree

        tree = CompleteTree.load(flags["tree"])
        depth, label, nodes = report["depth"], tuple(report["label"]), report["nodes"]
        problems = []
        if len(nodes) != (1 << (depth + 1)) - 1:
            problems.append("embedded subtree has the wrong node count")
        elif any(tree.labels.get(t) != label for t in nodes[: (1 << depth) - 1]):
            problems.append("an internal subtree node carries another label")
        answer = {k: report[k] for k in ("depth", "label", "levels", "guarantee_stages", "guarantee_depth")}
        return answer, problems

    def _join(self, report, flags, rc):
        from gapdim.exactset import IntervalUnion

        cells = report["cells"]
        problems = []
        sigs = {tuple(c["signature"]) for c in cells}
        sets = [IntervalUnion.from_text(c["set"]) for c in cells]
        if len(sigs) != len(cells) or report["cell_count"] != len(cells):
            problems.append("join cells are not one per signature")
        if IntervalUnion.union_all(sets).measure != sum(s.measure for s in sets):
            problems.append("join cells overlap")
        return {"cell_count": report["cell_count"], "full": report["full"]}, problems

    def _segments(self, report, flags, rc):
        from gapdim.exactset import IntervalUnion

        problems = []
        answer = []
        for entry in report["functions"]:
            sets = [IntervalUnion.from_text(s) for s in entry["segments"]]
            if len(sets) != report["K"] or IntervalUnion.union_all(sets).measure != 1 \
                    or sum(s.measure for s in sets) != 1:
                problems.append(f"segments of function {entry['index']} do not partition [0,1)")
            answer.append(entry["segments"])
        return {"K": report["K"], "segments_sha256": _digest(answer)}, problems

    def _ptree(self, report, flags, rc):
        depth, level, nodes = int(flags["depth"]), report["level"], report["nodes"]
        c = Fraction(flags["c"])
        problems = []
        if any(t.bit_length() - 1 != level for t in nodes) or len(nodes) != report["size"]:
            problems.append("witness nodes are not one level")
        if not len(nodes) >= c * (1 << depth) / (4 * depth):
            problems.append("witness smaller than the pigeonhole bound")
        return {"level": level, "u": report["u"], "size": report["size"]}, problems

    def _discrepancy(self, report, flags, rc):
        gamma_m = Fraction(report["gamma_m"]["exact"])
        per = [Fraction(d["exact"]) for d in report["per_function"]]
        problems = []
        if report["m"] != int(flags["m"]) or gamma_m != max(per):
            problems.append("gamma_m is not the largest per-function discrepancy")
        if report["m"] <= 1000:
            # On short paths, the largest discrepancy and the first one are
            # re-checked point by point instead of by cell counting.
            from gapdim.ergoproc import pointwise_discrepancy, sample_path

            path = sample_path(_process(flags["process"]), report["m"], int(flags["seed"]))
            F = self._class(flags["class"])
            for i in {0, per.index(gamma_m)}:
                if pointwise_discrepancy(F[i], path) != per[i]:
                    problems.append(f"discrepancy of function {i} differs from the pointwise one")
        answer = {"m": report["m"], "gamma_m": report["gamma_m"]["exact"],
                  "per_function_sha256": _digest([d["exact"] for d in report["per_function"]])}
        return answer, problems

    def _gc_curve(self, report, flags, rc):
        grid = sorted(int(m) for m in flags["m_grid"].split(","))
        reps = int(flags["replicates"])
        rows = report["rows"]
        problems = []
        if len(rows) != len(grid) * reps:
            problems.append("gc-curve has the wrong number of rows")
        last = [Fraction(r["gamma_m"]["exact"]) for r in rows if r["m"] == grid[-1]]
        estimate = Fraction(report["estimate"]["exact"])
        if not last or estimate != sum(last) / len(last):
            problems.append("estimate is not the replicate mean at the largest m")
        return {"estimate": report["estimate"]["exact"]}, problems

    def _bound_check(self, report, flags, rc):
        estimate = Fraction(report["estimate"]["exact"])
        bound = Fraction(report["bound"]["exact"])
        problems = []
        if bound != 10 * Fraction(flags["gamma"]) or Fraction(report["margin"]["exact"]) != bound - estimate:
            problems.append("bound or margin inconsistent")
        passed = report["verdict"] == "PASS"
        if passed != (estimate <= bound) or passed != (rc == 0):
            problems.append("verdict inconsistent")
        answer = {k: report[k] for k in ("dimension", "dimension_label", "verdict")}
        answer["estimate"] = report["estimate"]["exact"]
        return answer, problems

    def _demo_rotation(self, report, flags, rc):
        answer = {
            "data_dependent": report["data_dependent_family"]["gamma_m"]["exact"],
            "fixed": report["fixed_family"]["gamma_m"]["exact"],
            "dimension": report["combined_dimension"]["dimension"],
        }
        expected = {"data_dependent": "1/1", "fixed": "0/1", "dimension": 1}
        return answer, [] if answer == expected else [f"demo answer {answer}, expected {expected}"]
