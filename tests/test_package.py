"""The package surface: ``stefan`` exports its three layers' ``__all__``
lists in layer order, each name bound to the layer's own object;
``optimize`` exports ``options.__all__`` as the head of its own, and
``energy`` exports every name of ``problem.__all__``."""
import importlib

import stefan

LAYERS = [importlib.import_module(f"stefan.{name}") for name in ("energy", "optimize", "solution")]


def test_all_is_the_layers_all_in_layer_order():
    assert stefan.__all__ == [name for layer in LAYERS for name in layer.__all__]
    assert len(set(stefan.__all__)) == len(stefan.__all__)


def test_each_name_is_the_layers_own_object():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(stefan, name) is getattr(layer, name), name
    # the function shadows its module's name in the package namespace
    assert stefan.energy is LAYERS[0].energy and callable(stefan.energy)
    from stefan import Piece
    assert Piece is LAYERS[2].Piece


def test_options_are_the_head_of_optimize_all():
    options = importlib.import_module("stefan.options")
    assert options.__all__ == ["SolveOptions", "SolveStatus", "NewtonBreakdown"]
    assert LAYERS[1].__all__[:len(options.__all__)] == options.__all__
    for name in options.__all__:
        assert getattr(stefan, name) is getattr(LAYERS[1], name) is getattr(options, name), name
        assert getattr(options, name).__module__ == "stefan.options", name


def test_problem_names_are_exported_by_energy():
    problem = importlib.import_module("stefan.problem")
    assert problem.__all__ == ["InvalidProblem", "EnergyOverflow", "ProblemSpec",
                               "WellPosednessReport", "check_wellposedness"]
    assert set(problem.__all__) <= set(LAYERS[0].__all__)
    for name in problem.__all__:
        assert getattr(stefan, name) is getattr(LAYERS[0], name) is getattr(problem, name), name
        assert getattr(problem, name).__module__ == "stefan.problem", name
