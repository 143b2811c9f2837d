"""Tests for the protocol abstractions."""

import numpy as np
import pytest

from repro.core import (
    ComposedProtocol,
    FunctionProtocol,
    ProcessorContext,
    Protocol,
    ProtocolViolation,
    make_contexts,
    run_protocol,
)


class TestFunctionProtocol:
    def test_shared_function(self, rng):
        protocol = FunctionProtocol(1, lambda i, row, p: int(row[0]) ^ 1)
        inputs = np.array([[1], [0]], dtype=np.uint8)
        result = run_protocol(protocol, inputs, rng=rng)
        assert [e.message for e in result.transcript] == [0, 1]

    def test_per_processor_functions(self, rng):
        fns = [
            lambda i, row, p: 0,
            lambda i, row, p: 1,
        ]
        protocol = FunctionProtocol(1, fns)
        result = run_protocol(
            protocol, np.zeros((2, 1), dtype=np.uint8), rng=rng
        )
        assert [e.message for e in result.transcript] == [0, 1]

    def test_transcript_bits_passed(self, rng):
        seen = []

        def fn(i, row, p):
            seen.append(p)
            return 0

        protocol = FunctionProtocol(1, fn)
        run_protocol(
            protocol, np.zeros((3, 1), dtype=np.uint8),
            scheduler="turn", rng=rng,
        )
        assert seen == [(), (0,), (0, 0)]

    def test_negative_rounds_raise(self):
        with pytest.raises(ValueError):
            FunctionProtocol(-1, lambda i, row, p: 0)

    def test_default_output_is_none(self, rng):
        protocol = FunctionProtocol(1, lambda i, row, p: 0)
        result = run_protocol(
            protocol, np.zeros((2, 1), dtype=np.uint8), rng=rng
        )
        assert result.outputs == [None, None]


class OneRoundConstant(Protocol):
    def __init__(self, bit, tag):
        self.bit = bit
        self.tag = tag

    def num_rounds(self, n):
        return 1

    def setup(self, proc):
        proc.memory.setdefault("setup_order", []).append(self.tag)

    def broadcast(self, proc, round_index):
        return self.bit

    def output(self, proc):
        return proc.memory.get("setup_order")


class TestComposedProtocol:
    def test_runs_phases_in_order(self, rng):
        composed = ComposedProtocol(OneRoundConstant(1, "a"), OneRoundConstant(0, "b"))
        inputs = np.zeros((2, 1), dtype=np.uint8)
        result = run_protocol(composed, inputs, rng=rng)
        assert [e.message for e in result.transcript] == [1, 1, 0, 0]
        assert result.cost.rounds == 2

    def test_second_setup_called_at_phase_boundary(self, rng):
        composed = ComposedProtocol(OneRoundConstant(1, "a"), OneRoundConstant(0, "b"))
        result = run_protocol(
            composed, np.zeros((2, 1), dtype=np.uint8), rng=rng
        )
        assert result.outputs[0] == ["a", "b"]

    def test_message_size_mismatch_rejected(self):
        wide = FunctionProtocol(1, lambda i, r, p: 0, message_size=2)
        narrow = FunctionProtocol(1, lambda i, r, p: 0, message_size=1)
        with pytest.raises(ProtocolViolation):
            ComposedProtocol(wide, narrow)

    def test_nested_composition_runs_every_setup(self, rng):
        """Regression: the phase-boundary marker used to be one shared
        memory key, so a ComposedProtocol nested as the second phase saw
        the outer composition's marker and silently skipped its own second
        protocol's setup."""
        composed = ComposedProtocol(
            OneRoundConstant(1, "a"),
            ComposedProtocol(OneRoundConstant(0, "b"), OneRoundConstant(1, "c")),
        )
        inputs = np.zeros((2, 1), dtype=np.uint8)
        result = run_protocol(composed, inputs, rng=rng)
        assert [e.message for e in result.transcript] == [1, 1, 0, 0, 1, 1]
        assert result.outputs[0] == ["a", "b", "c"]

    def test_nested_composition_first_phase(self, rng):
        composed = ComposedProtocol(
            ComposedProtocol(OneRoundConstant(1, "a"), OneRoundConstant(0, "b")),
            OneRoundConstant(1, "c"),
        )
        inputs = np.zeros((2, 1), dtype=np.uint8)
        result = run_protocol(composed, inputs, rng=rng)
        assert [e.message for e in result.transcript] == [1, 1, 0, 0, 1, 1]
        assert result.outputs[0] == ["a", "b", "c"]

    def test_zero_round_second_phase_still_sets_up(self, rng):
        composed = ComposedProtocol(
            OneRoundConstant(1, "a"),
            FunctionProtocol(
                0, lambda i, r, p: 0, output_fn=lambda i, r, p: "done"
            ),
        )
        result = run_protocol(
            composed, np.zeros((2, 1), dtype=np.uint8), rng=rng
        )
        assert result.outputs[0] == "done"


class TestProcessorContext:
    def test_bad_proc_id_rejected(self, rng):
        from repro.core import PrivateCoins, Transcript

        with pytest.raises(ValueError):
            ProcessorContext(
                5, 3, np.zeros(2), PrivateCoins(rng), None, Transcript()
            )

    def test_input_bits_are_each_row_as_ints(self, rng):
        inputs = rng.integers(0, 2, size=(5, 7), dtype=np.uint8)
        contexts, _ = make_contexts(inputs, rng=rng)
        for proc, row in zip(contexts, inputs):
            assert proc.input_bits == proc.input.tolist() == row.tolist()
            assert all(type(bit) is int for bit in proc.input_bits)
            assert [proc.input_bit(j) for j in range(7)] == proc.input_bits

    def test_input_bits_of_every_simulated_processor(self, rng):
        inputs = rng.integers(0, 2, size=(4, 6), dtype=np.uint8)
        result = run_protocol(
            FunctionProtocol(1, lambda i, row, p: int(row[0])), inputs, rng=rng
        )
        for proc in result.contexts:
            assert proc.input_bits == proc.input.tolist()
            assert all(type(bit) is int for bit in proc.input_bits)

    def test_direct_construction_derives_input_bits(self, rng):
        from repro.core import PrivateCoins, Transcript

        proc = ProcessorContext(
            0, 1, np.array([1.0, 0.0, 1.0]), PrivateCoins(rng), None, Transcript()
        )
        assert proc.input.dtype == np.uint8
        assert proc.input_bits == [1, 0, 1]
        assert all(type(bit) is int for bit in proc.input_bits)

    def test_views(self, rng):
        inputs = np.array([[1, 0], [0, 1]], dtype=np.uint8)

        class Recorder(Protocol):
            def num_rounds(self, n):
                return 2

            def broadcast(self, proc, round_index):
                return proc.proc_id

            def output(self, proc):
                return (
                    proc.my_previous_messages(),
                    proc.round_messages(0),
                    proc.input_bit(0),
                )

        result = run_protocol(Recorder(), inputs, rng=rng)
        mine, round0, bit = result.outputs[1]
        assert mine == [1, 1]
        assert round0 == {0: 0, 1: 1}
        assert bit == 0
