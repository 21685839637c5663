"""
Feature maps, ansatz layers, and entanglement layouts
=====================================================

The twelve benchmark configs are combinations of a data-encoding feature
map (Z or ZZ) and a CX entanglement strategy inside the trainable ansatz.
This script prints the gate listings and the (control, target) pairs each
strategy produces, including how SCA shifts per layer.
"""
import windqnn  # noqa: F401  # before numpy: its single-threaded OpenBLAS default applies

import numpy as np

from windqnn.circuit import (
    ENTANGLEMENTS,
    build_ansatz,
    build_z_feature_map,
    build_zz_feature_map,
    compose,
    entangler_pairs,
    evaluate,
    render,
)

# The Z feature map is entirely local: one Hadamard plus one phase rotation
# P(2 x_i) per qubit and repetition. The ZZ map adds CX-P-CX sandwiches
# that encode pairwise feature products.
print("Z feature map, 4 qubits, 1 rep:")
print(render(build_z_feature_map(4, 1)))
print()
print("ZZ feature map, 4 qubits, 1 rep, linear entanglement:")
print(render(build_zz_feature_map(4, 1, entanglement="linear")))
print()

# Entanglement strategies differ in which CX pairs appear per layer. Only
# SCA depends on the layer index: the ring shifts by one position each
# layer and control/target swap on odd layers.
for strategy in ENTANGLEMENTS:
    print(f"{strategy:>15}:", entangler_pairs(strategy, 4))
print()
for block in range(4):
    print(f"sca layer {block}:", entangler_pairs("sca", 4, block_index=block))
print()

# A full model is feature map composed with ansatz. With every rotation
# angle zero the ansatz is a stack of identities, so the parity readout at
# x = 0 is exactly +1 regardless of the entanglement choice.
for strategy in ENTANGLEMENTS:
    template = compose(build_z_feature_map(4, 2), build_ansatz(4, 3, strategy))
    value = evaluate(template, np.zeros(4), np.zeros(16))
    print(f"Z map + {strategy:<15} at x=0, theta=0: <Z^4> = {value:+.12f}")
