"""Scalar Sugeno inference, rule by rule: the oracle for the vectorized
forward pass in ``neurofuzzy.anfis``.

Each rule walks its antecedent and multiplies one membership degree
per input, so nothing here shares code with the batch path it checks.
"""

from dataclasses import dataclass

import numpy as np

from neurofuzzy.fuzzy import normalize_weights


def rules(model):
    """The rule base of an ``AnfisModel`` as explicit Sugeno rules."""
    return [SugenoRule(antecedent=tuple(int(a) for a in ant),
                       consequent=tuple(float(p) for p in cons))
            for ant, cons in zip(model.antecedents, model.consequents)]


@dataclass(frozen=True)
class SugenoRule:
    """One rule of a Sugeno system.

    ``antecedent[j]`` indexes the membership function used for input j;
    ``consequent`` holds the constant term followed by one coefficient
    per input, so the rule output is  p0 + sum_j p[j+1] * x[j].
    A constant-consequent rule simply has zero input coefficients.
    """

    antecedent: tuple
    consequent: tuple

    def __post_init__(self):
        if len(self.consequent) != len(self.antecedent) + 1:
            raise ValueError(
                f"consequent needs {len(self.antecedent) + 1} coefficients, "
                f"got {len(self.consequent)}")

    def output(self, x):
        p = np.asarray(self.consequent, dtype=float)
        return float(p[0] + np.dot(p[1:], np.asarray(x, dtype=float)))


def _check_rule_dims(rules, mf_bank, x):
    x = np.asarray(x, dtype=float)
    if len(x) != len(mf_bank):
        raise ValueError(
            f"input has {len(x)} entries but the bank covers {len(mf_bank)}")
    for rule in rules:
        if len(rule.antecedent) != len(mf_bank):
            raise ValueError(
                f"rule antecedent length {len(rule.antecedent)} does not "
                f"match {len(mf_bank)} inputs")
        for j, m in enumerate(rule.antecedent):
            if not 0 <= m < len(mf_bank[j]):
                raise ValueError(f"antecedent index {m} invalid for input {j}")
    return x


def firing_strengths(rules, mf_bank, x):
    """Product-AND firing strength of each rule at input ``x``.

    ``mf_bank[j]`` lists the membership functions available for input j.
    """
    x = _check_rule_dims(rules, mf_bank, x)
    w = np.empty(len(rules))
    for i, rule in enumerate(rules):
        strength = 1.0
        for j, m in enumerate(rule.antecedent):
            strength *= float(mf_bank[j][m].degree(x[j]))
        w[i] = strength
    return w


def sugeno_infer(rules, mf_bank, x):
    """Weighted-average Sugeno inference: y = sum_i w_bar_i * f_i(x).

    Returns ``(y, w_bar)``; the normalized strengths are reused by the
    trainer and for rule-level explanations.
    """
    x = _check_rule_dims(rules, mf_bank, x)
    w = firing_strengths(rules, mf_bank, x)
    w_bar, _ = normalize_weights(w)
    outputs = np.array([rule.output(x) for rule in rules])
    return float(np.dot(w_bar, outputs)), w_bar
