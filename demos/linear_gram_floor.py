"""Least Gram eigenvalue of the deep linear network versus its width-free
floor.

The floor 0.8^4 * depth * sigma_min^2 / d_out depends only on the data and
architecture. The Gram eigenvalue fluctuates with the random initialization
but should sit above the floor once the network is reasonably wide.
"""

from fedspectra import (
    LabeledBatch,
    gram_P0_lambda_min,
    init_deep_linear,
    synth_linear_dataset,
    verify,
)

ds, _ = synth_linear_dataset(d_in=8, d_out=2, n=16, seed=0)
batches = (LabeledBatch(X=ds.X, Y=ds.Y),)


def context(width):
    """The run context of one client holding every sample; the set-up checks
    read only its data, initial parameters and least Gram eigenvalue."""
    p = init_deep_linear(3, width, 8, 2, seed=0)
    lam = gram_P0_lambda_min(p, ds.X)[0]
    return verify.RunContext(batches, p, lam, eta=0.01, local_steps=1)


print(f"floor = {verify.gram_floor(context(32))[0].context['floor']:.4f}")
print("width   lambda_min   floor/lambda_min   ok")
for width in (32, 64, 128, 256, 512, 1024):
    (rep,) = verify.gram_floor(context(width))
    print(f"{width:>5}   {rep.bound:<10.4f}   {rep.slack:<16.3f} {rep.passed}")

# the same initialization obeys per-product singular value windows; at small
# width they can fail, which is the point of checking them
print("\nsingular value windows of the layer products at width 1000:")
for rep in verify.init_spectra(context(1000)):
    print(f"  {rep.name:<32} measured {rep.measured:>10.2f}  "
          f"bound {rep.bound:>10.2f}  {'ok' if rep.passed else 'VIOLATED'}")
