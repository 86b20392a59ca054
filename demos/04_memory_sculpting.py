"""Memory sculpting in isolation: task importance, its running mean, the
sensitivity-modulated regularization weight, the unlearning loss, and the
training objective backward() assembles from them."""

import numpy as np

from pecl import (
    AdapterSnapshot,
    ImportanceState,
    LossSpec,
    SculptConfig,
    backward,
    dynamic_lambda,
    init_adapter,
    init_lm,
    reg_loss,
    task_importance,
    unlearn_loss,
    update_running_importance,
)

config = SculptConfig()  # lambda in [1, 10], theta 0.6, lambda_unlearn 1

print("== task importance and its running mean ==")
state = ImportanceState()
rng = np.random.default_rng(0)
for task in range(1, 5):
    delta = rng.normal(scale=0.2 * task, size=(6, 10))
    for _ in range(30):
        state.observe_activation(float(rng.uniform(1.0, 2.0)))
    omega = task_importance(delta, state.activation_norm_accum)
    state = update_running_importance(state, omega)
    state.reset_activations()
    print(f"task {task}: Omega = {omega:7.3f}, running mean = {state.omega_bar:7.3f}")

print("\n== dynamic regularization weight ==")
print("low mean sensitivity -> strong anchoring; high sensitivity -> freedom to move")
for s_bar in (0.0, 0.3, 0.6, 0.9, 1.0):
    print(f"mean sensitivity {s_bar:.1f} -> lambda_dyn = {dynamic_lambda(s_bar, config):5.2f}")

print("\n== drift penalty against the previous task's adapter ==")
snapshot = AdapterSnapshot(task_id=1, delta_w=rng.normal(size=(4, 6)))
for scale in (0.0, 0.05, 0.2):
    current = snapshot.delta_w + scale * rng.normal(size=(4, 6))
    penalty = reg_loss(current, snapshot, lambda_dyn=5.5, omega_bar=2.0)
    print(f"drift scale {scale:.2f} -> L_reg = {penalty:8.4f}")
print("first task has no snapshot, so the penalty is defined as 0:")
print(f"L_reg(no snapshot) = {reg_loss(snapshot.delta_w, None, 5.5, 2.0)}")

print("\n== unlearning loss: only tokens above the threshold contribute ==")
scores = np.array([0.2, 0.55, 0.7, 0.95])
losses = np.array([1.0, 1.0, 2.0, 3.0])
for theta in (0.5, 0.6, 0.9):
    value = unlearn_loss(scores, losses, theta)
    flagged = (scores > theta).sum()
    print(f"theta={theta:.1f}: {flagged} flagged tokens -> L_unlearn = {value:.4f}")

print("\n== total objective ==")
print("backward() assembles J = L_task + L_reg + sign * lambda_unlearn * L_unlearn;")
print("the default 'suppress' mode uses sign = -1, 'additive' uses +1.")
model = init_lm((6, 4, 3, 5), seed=0)
adapter = init_adapter(model, rank=2, seed=0, task_id=2)
adapter.b[:] = rng.normal(scale=0.1, size=adapter.b.shape)
batch = [[1, 4, 2, 5], [3, 2, 1]]
batch_scores = [np.array([0.0, 0.9, 0.3, 0.8]), np.array([0.0, 0.7, 0.2])]
reference = rng.normal(scale=0.1, size=(model.d_hidden, model.d_in))
for sign, mode in ((-1.0, "suppress"), (1.0, "additive")):
    spec = LossSpec(scores=batch_scores, theta=0.6, lambda_unlearn=1.0, unlearn_sign=sign,
                    reg_weight=2.0, reg_reference=reference)
    g = backward(model, adapter, batch, spec)
    print(f"{mode:8s}: L_task={g.l_task:.4f} L_reg={g.l_reg:.4f} "
          f"L_unlearn={g.l_unlearn:.4f} -> objective={g.objective:.4f}")
print("During training the unlearning term steers flagged tokens away from")
print("reinforcement (their gradient share is down-weighted, and reversed once")
print("lambda_unlearn * (score - theta) exceeds 1).")
