"""Hidden-layer sweep for the dense-network baseline.

Trains one small feed-forward network per hidden size.  The size is
picked on the training rows alone, by accuracy over five stratified
inner folds of them, ties going to the smaller network; the test rows
then score each size once and play no part in the pick.
"""

from neurofuzzy import (MlpTrainingConfig, binarize, load_dataset,
                        split_stratified, sweep_hidden)

samples = binarize(load_dataset("data/ukm_synthetic.csv"))
split = split_stratified(samples, 0.8, seed=0)

config = MlpTrainingConfig(epochs=200, learn_rate=0.5)
results, best = sweep_hidden(split.train, split.test, config,
                             sizes=range(4, 13))

print(f"{'hidden':>6}  {'inner acc':>9}  {'train mse':>9}  {'test mse':>9}"
      f"  {'test acc':>8}")
for row in results:
    marker = "  <- picked" if row["hidden"] == best else ""
    print(f"{row['hidden']:>6}  {row['inner_accuracy']:>9.4f}  {row['train_mse']:>9.4f}"
          f"  {row['test_mse']:>9.4f}  {row['test_accuracy']:>8.4f}{marker}")

print(f"\npicked hidden size: {best}")
