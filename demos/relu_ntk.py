"""Finite-width ReLU feature Gram matrices against the closed-form wide
limit.

Entry (i, j) of the finite-width matrix averages x_i.x_j over hidden units
active on both inputs; as the width grows it converges to the closed form
x_i.x_j (pi - angle) / (2 pi). The least eigenvalue of the limit sets the
convergence rate of federated training on this data.
"""

import numpy as np

from fedspectra import (
    LabeledBatch,
    gram_H_infinity,
    init_two_layer,
    spectrum,
    synth_linear_dataset,
    verify,
)

ds, _ = synth_linear_dataset(d_in=16, d_out=1, n=64, seed=0)
H = gram_H_infinity(ds.X)
s = spectrum(H)
print(f"n = 64 unit-norm inputs: lambda_min = {s.lambda_min:.4f}, "
      f"lambda_max = {s.lambda_max:.4f}")

# ntk-trace reads only the run's data: one client holding every sample
ctx = verify.RunContext(
    (LabeledBatch(X=ds.X, Y=ds.Y.ravel()),), init_two_layer(64, 16, seed=0), s.lambda_min,
    eta=0.05, local_steps=1,
)
(rep,) = verify.ntk_trace(ctx)
print(f"trace identity |tr(H) - n/2| = {rep.measured:.2e} (ok={rep.passed})")

print("\nwidth   max |H_m - H_inf|")
for m in (64, 256, 1024, 4096, 16384):
    W = init_two_layer(m, 16, seed=0).hidden
    active = (W @ ds.X >= 0.0).astype(float)  # unit r active on input i
    H_m = (ds.X.T @ ds.X) * (active.T @ active) / m
    print(f"{m:>6}   {np.max(np.abs(H_m - H)):.4f}")
