"""Run a small federated averaging job and watch the loss contract.

Eight clients share a synthetic linear teacher. Each round a subset of them
runs five local gradient steps from the broadcast parameters, and the server
averages the returned weights. The printed ratio column is the per-round loss
multiplier; the rho column is the theoretical contraction factor built from
the least Gram eigenvalue.
"""

import numpy as np

from fedspectra import (
    FederationConfig,
    LabeledBatch,
    bound_series,
    gram_P0_lambda_min,
    init_deep_linear,
    partition_iid,
    run_fedavg,
    synth_linear_dataset,
)

d_in, d_out, n, n_clients = 10, 5, 32, 8

ds, _ = synth_linear_dataset(d_in, d_out, n, seed=2)
batches = [LabeledBatch(X=ds.X[:, ix], Y=ds.Y[:, ix]) for ix in partition_iid(n, n_clients)]
init = init_deep_linear(depth=3, width=256, d_in=d_in, d_out=d_out, seed=2)

# data is over-complete (n > d_in), so the Gram matrix is rank deficient and
# the meaningful least eigenvalue lives on the residual-reachable subspace;
# it is read off the Gram matrix of the data's row space
lam = gram_P0_lambda_min(init, ds.X)[0]
print(f"least Gram eigenvalue on the reachable subspace: {lam:.4f}")

sv = np.linalg.svd(ds.X, compute_uv=False)
eta = 4.0 * d_out / (3 * (sv[0] / sv[-1]) ** 2 * 5 * sv[0] ** 2)

for rate in (0.25, 1.0):
    cfg = FederationConfig(
        n_clients=n_clients, local_steps=5, rounds=60, eta=eta,
        rate=rate, seed=2,
    )
    result = run_fedavg(cfg, init, batches)
    series = bound_series(
        result.losses[0], eta, 5, n_clients, lam,
        [len(tr.members) for tr in result.traces],
    )
    print(f"\nparticipation rate {rate}")
    print("  t  |S|   loss        ratio     rho       bound")
    losses = result.losses
    for tr in result.traces[:5] + result.traces[-2:]:
        t = tr.t
        print(
            f"{t:>4} {len(tr.members):>3}  {losses[t]:<10.4g} "
            f"{losses[t + 1] / losses[t]:.5f}  {series.rho[t]:.5f}  {series.values[t]:.4g}"
        )
    print(f"final loss {result.final_loss:.4g}, "
          f"drop {result.losses[0] / result.final_loss:.1f}x in {cfg.rounds} rounds")
