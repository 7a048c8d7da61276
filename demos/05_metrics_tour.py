"""The evaluation toolbox: confusion rates, kappa, ROC, and the
error-count bookkeeping used in the published comparison table.
"""

import numpy as np

from neurofuzzy import (BinaryConfusion, auc, cap_consistent, cohen_kappa,
                        evaluate_multiclass, mwcs_cap, random_accuracy,
                        roc_curve, total_accuracy)

# A hand-sized binary confusion: 90% right, but the marginals mean a
# blind guesser would already get ~50% right, which kappa discounts.
c = BinaryConfusion(tp=40, fp=5, tn=50, fn=5)
print("accuracy:", total_accuracy(c))
print("chance accuracy:", random_accuracy(c))
print("kappa:", round(cohen_kappa(c), 4))

# ROC from raw scores; ties share credit, so the curve is a fair
# staircase and its area equals the pairwise ranking probability.
scores = [0.9, 0.8, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1]
labels = [1, 1, 0, 1, 0, 1, 0, 0]
curve = roc_curve(scores, labels)
print("\nROC fpr:", curve.fpr.tolist())
print("ROC tpr:", curve.tpr.tolist())
print("AUC:", auc(curve))

# Multiclass reports run each class one-against-rest.
true = [0, 0, 1, 1, 2, 2, 3, 3]
pred = [0, 0, 1, 2, 2, 2, 3, 1]
report = evaluate_multiclass(true, pred)
print(f"\noverall accuracy {report.overall_accuracy:.3f}, "
      f"CAP {report.cap:.1f}%")
for row in report.per_class:
    print(f"  class {row['class_index']}: tpr={row['tpr']}, "
          f"fpr={round(row['fpr'], 3)}, kappa="
          f"{None if row['kappa'] is None else round(row['kappa'], 3)}")

# The published comparison reports a mean wrong-classification count
# and a correct-percentage; the two must agree for a given test size.
mwcs, cap = mwcs_cap([2], 145)
print(f"\n2 wrong of 145 -> mwcs {mwcs:g}, CAP {cap:.2f}%")
print("consistent with printed 98.62%? ",
      cap_consistent(2.0, 98.62, 145))
print("consistent with printed 97.24%? ",
      cap_consistent(3.5, 97.24, 145), " (an inconsistency the shipped "
      "constants table deliberately preserves)")
