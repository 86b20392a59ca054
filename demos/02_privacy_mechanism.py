"""The clipped Gaussian mechanism end to end: budgets, noise scales,
empirical moments, the exposure ledger, and sequence-level composition."""

import numpy as np

from pecl import (
    PrivacyConfig,
    PrivacyLedger,
    allocate_budget,
    clip,
    compose_sequence,
    noise_sigma,
    perturb_embedding,
)
from pecl.sensitivity import ProfileEntry

config = PrivacyConfig()  # eps in [1, 10], delta 1e-6, C = 1, appendix calibration

print("== budget allocation: higher sensitivity -> smaller epsilon ==")
print(f"{'score':>6} {'epsilon':>8} {'sigma(appendix)':>16} {'sigma(main_text)':>17}")
for score in (0.0, 0.25, 0.5, 0.75, 0.95):
    eps = allocate_budget(score, config)
    s_apx = noise_sigma(eps, config.delta, config.clip_norm, "appendix")
    s_mt = noise_sigma(eps, config.delta, config.clip_norm, "main_text")
    print(f"{score:>6.2f} {eps:>8.3f} {s_apx:>16.3f} {s_mt:>17.3f}")
print("\nThe appendix calibration doubles the main-text one: with both inputs")
print("clipped to norm C the mechanism's L2 sensitivity is 2C, and only that")
print("calibration is backed by the Gaussian-mechanism guarantee.\n")

print("== clipping ==")
e = np.array([3.0, 4.0])
print(f"clip((3, 4), C=1) = {clip(e, 1.0)}  (norm 5 -> scaled by 1/5)")
print(f"idempotent: {np.array_equal(clip(clip(e, 1.0), 1.0), clip(e, 1.0))}\n")

print("== empirical noise moments (10k draws) ==")
rng = np.random.default_rng(0)
entry = ProfileEntry(score=0.8, epsilon=allocate_budget(0.8, config),
                     sigma=noise_sigma(allocate_budget(0.8, config), config.delta,
                                       config.clip_norm, "appendix"))
e = np.array([0.6, -0.2, 0.4, 0.1])
samples = np.stack([perturb_embedding(e, entry, config, rng) for _ in range(10_000)])
print(f"target sigma {entry.sigma:.3f}; sample stds {np.round(samples.std(axis=0, ddof=1), 3)}")
print(f"sample means {np.round(samples.mean(axis=0), 3)} vs clipped center {np.round(clip(e, 1.0), 3)}\n")

print("== ledger and composition ==")
print("The mechanism only noises; its caller records each exposure in the ledger.")
ledger = PrivacyLedger(config.delta)  # one delta for every exposure
for pos, score in enumerate((0.9, 0.4, 0.7, 0.95)):
    eps = allocate_budget(score, config)
    sigma = noise_sigma(eps, config.delta, config.clip_norm, "appendix")
    perturb_embedding(e, ProfileEntry(score, eps, sigma), config, rng)
    ledger.extend(["demo:0"], [pos], 0, [eps], [sigma])
eps_total, delta_total = compose_sequence(ledger, delta_prime=1e-6)
print(f"{len(ledger)} exposures with epsilons {np.round(ledger.columns()['epsilon'], 3)}")
print(f"composed: eps_total = {eps_total:.3f}, delta_total = {delta_total:.2e}")
print("eps_total = sum(eps_i) + sqrt(2 L ln(1/delta')) * max(eps_i), applied verbatim.")

print("\nZero-score tokens bypass the mechanism entirely and are not exposures:")
out = perturb_embedding(e, ProfileEntry(0.0, float("nan"), float("nan")), config, rng)
print(f"output is the same object: {out is e}")
