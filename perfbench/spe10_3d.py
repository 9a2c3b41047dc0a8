"""Generate the spe10_3d workload: a 60 x 220 x NZ SPE10-like stand-in deck.

Each layer is a correlated field from ``decks/generate_spe10_subset.py``
(imported, not copied), blended with the layer above so layers are
vertically correlated, and mapped onto the same permeability span
(1e-3 .. 2e4 md) and porosity texture as the shipped 2-D subset.  The
five-spot wells of ``decks/spe10_subset.deck`` are completed through every
layer.  Field and deck files go to an output directory outside the source
tree; the simulator receives only the generated deck.

    python3 perfbench/spe10_3d.py --seed 1 --layers 6 --out .bench_cache/x
"""

from __future__ import annotations

import argparse
import importlib.util
import os

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYER_CORRELATION = 0.7
T_END = 0.25    # days: one short step keeps a sample inside the run budget

DECK = """\
# Generated SPE10-like {nx}x{ny}x{nz} two-phase five-spot (seed {seed}).
[grid]
nx = {nx}
ny = {ny}
nz = {nz}
dx = 20.0
dy = 10.0
dz = 2.0
depth_top = 12000.0

[fields]
perm = file:perm.dat
poro = file:poro.dat

[fluid]
model = two_phase
s_wc = 0.2
s_or = 0.2
mu_w = 0.3
mu_o = 3.0
rho_w_ref = 64.0
rho_o_ref = 53.0
c_w = 0.0
c_o = 0.0
c_r = 0.0

[init]
p_init = 6000.0
s_w_init = 0.2

[wells]
well = INJ type=injector fluid=water rw=0.3 bhp=10000.0
perf = INJ {ic} {jc} 0:{nz}
well = P1 type=producer rw=0.3 bhp=4000.0
perf = P1 0 0 0:{nz}
well = P2 type=producer rw=0.3 bhp=4000.0
perf = P2 {il} 0 0:{nz}
well = P3 type=producer rw=0.3 bhp=4000.0
perf = P3 0 {jl} 0:{nz}
well = P4 type=producer rw=0.3 bhp=4000.0
perf = P4 {il} {jl} 0:{nz}

[solver]
newton_tol = 1e-2
newton_max = 20
linear_max_it = 50
preconditioner = cpr_fpf
decoupling = quasi_impes
forcing_rule = eq13_c

[time]
t_end = {t_end}
dt_init = {t_end}
dt_max = 100.0
growth = 2.0
cut = 0.5
max_cuts = 10

[output]
vtk_prefix = spe10_3d
"""


def _subset_generator():
    path = os.path.join(REPO, "decks", "generate_spe10_subset.py")
    spec = importlib.util.spec_from_file_location("generate_spe10_subset", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def make_fields(seed: int, layers: int):
    """kx, ky, kz, poro as (layers, NY, NX) arrays, deterministic in seed."""
    gen = _subset_generator()
    rng = np.random.default_rng(seed)
    f = np.empty((layers, gen.NY, gen.NX))
    f[0] = gen.correlated_field(rng)
    a = LAYER_CORRELATION
    for k in range(1, layers):
        f[k] = a * f[k - 1] + np.sqrt(1.0 - a * a) * gen.correlated_field(rng)
    # same histogram shaping and ranges as the shipped 2-D subset
    f = np.sign(f) * np.abs(f) ** 1.25
    u = (f - f.min()) / (f.max() - f.min())
    ln_k = np.log(gen.K_MIN) + u * (np.log(gen.K_MAX) - np.log(gen.K_MIN))
    kx = np.exp(ln_k)
    poro = np.clip(0.05 + 0.42 * u ** 1.4 + 0.01 * rng.standard_normal(u.shape),
                   0.0, 0.5)
    poro[u < 0.015] = 0.0
    return kx, kx, 0.3 * kx, poro


def _dump(path, blocks):
    vals = np.concatenate([b.reshape(-1) for b in blocks])   # i fastest
    with open(path, "w") as fh:
        for i in range(0, len(vals), 6):
            fh.write(" ".join(f"{v:.6e}" for v in vals[i:i + 6]) + "\n")


def write_deck(out_dir: str, seed: int, layers: int = 6) -> str:
    """Write perm.dat, poro.dat and spe10_3d.deck into out_dir; return the deck path."""
    kx, ky, kz, poro = make_fields(seed, layers)
    nz, ny, nx = kx.shape
    os.makedirs(out_dir, exist_ok=True)
    _dump(os.path.join(out_dir, "perm.dat"), [kx, ky, kz])
    _dump(os.path.join(out_dir, "poro.dat"), [poro])
    deck = os.path.join(out_dir, "spe10_3d.deck")
    with open(deck, "w") as fh:
        fh.write(DECK.format(nx=nx, ny=ny, nz=nz, seed=seed, ic=nx // 2 - 1,
                             jc=ny // 2 - 1, il=nx - 1, jl=ny - 1, t_end=T_END))
    return deck


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--layers", type=int, default=6)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    print(write_deck(args.out, args.seed, args.layers))


if __name__ == "__main__":
    main()
