"""
Training one quantum model on synthetic turbine data
====================================================

End-to-end walk through the library layer: generate data, split and scale,
train the QNN-5 config (Z feature map, reverse-linear entanglement) with
the parameter-shift gradient, and evaluate in physical units.
"""
from windqnn.data import (
    fit_scaler,
    generate_synthetic,
    invert_target,
    scale_features,
    scale_target,
    split,
)
from windqnn.evaluate import mae, r2
from windqnn.optimizer import OptimizerOptions
from windqnn.qnn import build_model, encode, gram_form, predict_scaled, train, with_parameters
from windqnn.report import emit_scatter_svg

# A small sample keeps this demo quick; the benchmark uses 4,464 rows.
dataset = generate_synthetic(600, seed=42)
train_set, test_set = split(dataset, 0.8, mode="shuffled", seed=42)
print(f"{len(train_set)} training rows, {len(test_set)} test rows")

# Features scale to [0, pi] so they fit the phase encoding; the target
# scales to [-1, 1] to match the parity readout's range.
scaling = fit_scaler(train_set)
x_train = scale_features(scaling, train_set.features)
y_train = scale_target(scaling, train_set.power)
x_test = scale_features(scaling, test_set.features)

model = build_model("QNN-5", init_seed=42)
print(f"model: {model.template.n_parameter_slots} trainable parameters, "
      f"{len(model.template.gates)} gates")

# Training reads the rows only through their Gram form: encode runs the
# feature map over them once, and the loss becomes a quadratic form in the
# model's 16 x 16 observable.
gram = gram_form(encode(model.template, x_train), y_train)
result = train(model, gram, OptimizerOptions(max_iterations=25))
print(f"training status: {result.status}, "
      f"loss {result.trace[0][1]:.4f} -> {result.best_value:.4f} "
      f"in {len(result.trace) - 1} iterations")

# Predictions come back in scaled space; invert to kilowatts for metrics.
fitted = with_parameters(model, result.best_point)
predicted = invert_target(scaling, predict_scaled(fitted, x_test))
print(f"test R2  = {r2(test_set.power, predicted):.4f}")
print(f"test MAE = {mae(test_set.power, predicted):.2f} kW")

emit_scatter_svg(test_set.power, predicted, "qnn5_scatter.svg",
                 title="QNN-5 on synthetic turbine data")
print("wrote qnn5_scatter.svg")
