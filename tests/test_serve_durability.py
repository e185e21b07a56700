"""Durable guard serving: journaled control plane + crash recovery.

The serve-layer half of the durability PR: a :class:`GuardServer`
opened with ``state_dir=`` journals every control-plane event before
activating it and refills tenants from disk via
:meth:`GuardServer.recover` — with verdicts bit-identical to the
pre-crash server.  The chaos finale SIGKILLs a child process serving
durable traffic and audits the recovered state against every commit
the child acknowledged.
"""

import asyncio
import multiprocessing as mp
import os
import signal

import pytest

from repro.dsl import Branch, Condition, Program, Statement, format_program
from repro.errors import Guard
from repro.parallel import fork_available
from repro.resilience import (
    DurabilityError,
    FullDiskIO,
    io_shim,
    recover_runtime_state,
)
from repro.serve import GuardServer, ServeStatus, TenantConfig
from repro.synth import Guardrail

pytestmark = pytest.mark.serve


def _program(city: str = "Berkeley") -> Program:
    branches = (
        Branch(Condition.of(PostalCode="94704"), "City", city),
        Branch(Condition.of(PostalCode="10001"), "City", "NewYork"),
    )
    return Program((Statement(("PostalCode",), "City", branches),))


def _guardrail(city: str = "Berkeley") -> Guardrail:
    return Guardrail.from_program(_program(city))


def _rows(n: int) -> list[dict]:
    """A deterministic mix of conforming and violating rows."""
    return [
        {
            "PostalCode": "94704",
            "City": "Berkeley" if i % 3 else "NewYork",
            "i": str(i),
        }
        for i in range(n)
    ]


class TestDurableControlPlane:
    def test_register_swap_rollback_are_journaled(self, tmp_path):
        state_dir = tmp_path / "state"
        server = GuardServer(state_dir=state_dir)
        server.register("acme", _guardrail())
        server.swap("acme", _guardrail("Oakland"))
        server.rollback("acme")
        folded, recovered = recover_runtime_state(state_dir)
        tenant = folded["tenants"]["acme"]
        assert len(tenant["programs"]) == 2
        assert tenant["cursor"] == 0  # the rollback committed too
        assert recovered.last_seq == 3

    def test_unregister_is_journaled(self, tmp_path):
        state_dir = tmp_path / "state"
        server = GuardServer(state_dir=state_dir)
        server.register("acme", _guardrail())
        server.unregister("acme")
        folded, recovered = recover_runtime_state(state_dir)
        assert folded["tenants"] == {}
        assert [e.kind for e in recovered.events] == [
            "tenant_register",
            "tenant_remove",
        ]

    def test_refused_register_never_activates(self, tmp_path):
        """Journal-before-activation: a registration the disk refused
        leaves the server exactly as it was."""
        server = GuardServer(state_dir=tmp_path / "state")
        with io_shim(FullDiskIO(capacity_bytes=0)):
            with pytest.raises(DurabilityError):
                server.register("acme", _guardrail())
        assert server.tenants == ()
        folded, _ = recover_runtime_state(tmp_path / "state")
        assert folded["tenants"] == {}

    def test_refused_swap_keeps_previous_version_live(self, tmp_path):
        server = GuardServer(state_dir=tmp_path / "state")
        server.register("acme", _guardrail())
        with io_shim(FullDiskIO(capacity_bytes=0)):
            with pytest.raises(DurabilityError):
                server.swap("acme", _guardrail("Oakland"))
        versions = server.tenant("acme").versions
        assert versions.version == 1
        assert format_program(versions.current.program) == format_program(
            _program()
        )

    async def test_violating_rows_journal_into_quarantine(self, tmp_path):
        state_dir = tmp_path / "state"
        server = GuardServer(state_dir=state_dir)
        server.register("acme", _guardrail())
        rows = _rows(9)
        async with server:
            for row in rows:
                response = await server.check("acme", row)
                assert response.status is ServeStatus.OK
        violating = [r for r in rows if r["City"] != "Berkeley"]
        assert server.tenant("acme").quarantine.peek() == violating
        folded, _ = recover_runtime_state(state_dir)
        assert folded["tenants"]["acme"]["quarantine"] == violating


class TestRecovery:
    async def test_recovered_verdicts_are_bit_identical(self, tmp_path):
        state_dir = tmp_path / "state"
        server = GuardServer(state_dir=state_dir)
        server.register("acme", _guardrail())
        server.swap("acme", _guardrail("Oakland"))
        rows = _rows(24)
        async with server:
            originals = await asyncio.gather(
                *(server.check("acme", row) for row in rows)
            )
        recovered = GuardServer.recover(state_dir)
        assert recovered.tenants == ("acme",)
        tenant = recovered.tenant("acme")
        assert tenant.versions.version == 2
        assert format_program(tenant.versions.current.program) == (
            format_program(_program("Oakland"))
        )
        async with recovered:
            replayed = await asyncio.gather(
                *(recovered.check("acme", row) for row in rows)
            )
        reference = Guard(_program("Oakland")).check_batch(rows)
        for before, after, expected in zip(originals, replayed, reference):
            assert before.verdict == after.verdict == expected
            assert before.version == after.version == 2

    async def test_quarantine_survives_recovery(self, tmp_path):
        state_dir = tmp_path / "state"
        server = GuardServer(state_dir=state_dir)
        server.register("acme", _guardrail())
        rows = _rows(9)
        async with server:
            for row in rows:
                await server.check("acme", row)
        violating = [r for r in rows if r["City"] != "Berkeley"]
        recovered = GuardServer.recover(state_dir)
        assert recovered.tenant("acme").quarantine.peek() == violating

    def test_rollback_cursor_survives_recovery(self, tmp_path):
        state_dir = tmp_path / "state"
        server = GuardServer(state_dir=state_dir)
        server.register("acme", _guardrail())
        server.swap("acme", _guardrail("Oakland"))
        server.swap("acme", _guardrail("Fresno"))
        server.rollback("acme")
        recovered = GuardServer.recover(state_dir)
        versions = recovered.tenant("acme").versions
        assert versions.version == 2
        assert versions.n_versions == 3  # the rolled-back swap is kept
        assert format_program(versions.current.program) == (
            format_program(_program("Oakland"))
        )

    def test_recovery_tolerates_torn_journal_tail(self, tmp_path):
        state_dir = tmp_path / "state"
        server = GuardServer(state_dir=state_dir)
        server.register("acme", _guardrail())
        with open(state_dir / "journal.log", "ab") as handle:
            handle.write(b"G1 torn")
        recovered = GuardServer.recover(state_dir)
        assert recovered.store.recovered.truncated_tail_bytes == 7
        assert recovered.tenants == ("acme",)

    def test_recovered_config_round_trips(self, tmp_path):
        state_dir = tmp_path / "state"
        server = GuardServer(state_dir=state_dir)
        config = TenantConfig(
            mode="parallel",
            policy="warn",
            max_batch=7,
            quarantine_capacity=3,
        )
        server.register("acme", _guardrail(), config)
        recovered = GuardServer.recover(state_dir)
        restored = recovered.tenant("acme").config
        assert restored.mode is config.mode
        assert restored.policy is config.policy
        assert restored.max_batch == 7
        assert restored.quarantine_capacity == 3

    async def test_recover_rebinds_predictors(self, tmp_path):
        state_dir = tmp_path / "state"
        server = GuardServer(state_dir=state_dir)
        server.register("acme", _guardrail(), predictor=lambda row: "v1")
        recovered = GuardServer.recover(
            state_dir, predictors={"acme": lambda row: "rebound"}
        )
        conforming = {"PostalCode": "94704", "City": "Berkeley"}
        async with recovered:
            response = await recovered.predict("acme", conforming)
        assert response.prediction == "rebound"

    async def test_clean_stop_snapshots_for_fast_recovery(self, tmp_path):
        state_dir = tmp_path / "state"
        server = GuardServer(state_dir=state_dir)
        server.register("acme", _guardrail())
        async with server:
            await server.check("acme", _rows(1)[0])
        recovered = GuardServer.recover(state_dir)
        diagnostics = recovered.store.recovered
        assert diagnostics.snapshot_generation >= 1
        assert diagnostics.replayed_records == 0  # journal tail was empty
        assert diagnostics.clean

    def test_further_writes_continue_the_journal(self, tmp_path):
        state_dir = tmp_path / "state"
        server = GuardServer(state_dir=state_dir)
        server.register("acme", _guardrail())
        recovered = GuardServer.recover(state_dir)
        recovered.swap("acme", _guardrail("Oakland"))
        folded, _ = recover_runtime_state(state_dir)
        assert len(folded["tenants"]["acme"]["programs"]) == 2


def _victim(state_dir, conn):
    """Serve durable traffic forever; ack every committed event.

    Alternates hot-swaps with violating-row traffic (whose quarantine
    pushes are journaled), acking ``("swap", version)`` /
    ``("quarantine", row)`` only after the durable call returned — so
    every ack the parent holds is a commit the journal must survive.
    """

    async def drive():
        server = GuardServer(state_dir=state_dir, snapshot_every=8)
        server.register("acme", _guardrail("V1"))
        conn.send(("register", 1))
        version = 1
        async with server:
            while True:
                bad = {
                    "PostalCode": "94704",
                    "City": "NewYork",
                    "i": str(version),
                }
                response = await server.check("acme", bad)
                if response.verdict is not None and not response.verdict.ok:
                    conn.send(("quarantine", bad))
                version += 1
                server.swap("acme", _guardrail(f"V{version}"))
                conn.send(("swap", version))

    asyncio.run(drive())


@pytest.mark.chaos
class TestKillAndRestart:
    """The acceptance-criterion chaos test: ``kill -9`` a durable
    server mid-traffic, restart, and audit every acknowledged commit."""

    def test_sigkill_recovers_every_acknowledged_commit(self, tmp_path):
        if not fork_available():
            pytest.skip("platform lacks the fork start method")
        state_dir = tmp_path / "state"
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_victim, args=(str(state_dir), child_conn))
        child.start()
        child_conn.close()
        acked = []
        try:
            while sum(1 for kind, _ in acked if kind == "swap") < 10:
                acked.append(parent_conn.recv())
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10.0)
            parent_conn.close()

        server = GuardServer.recover(state_dir)
        tenant = server.tenant("acme")

        # Every tenant sits at (or past) its last acknowledged version.
        last_acked_version = max(
            v for kind, v in acked if kind in ("register", "swap")
        )
        assert tenant.versions.version >= last_acked_version

        # Zero journaled quarantine rows lost: every acknowledged push
        # is present, in order, as a prefix of the recovered buffer.
        acked_rows = [row for kind, row in acked if kind == "quarantine"]
        recovered_rows = tenant.quarantine.peek()
        assert recovered_rows[: len(acked_rows)] == acked_rows

        # Bit-identical replayed verdicts: the recovered live guardrail
        # judges exactly as a from-scratch guardrail at that version.
        live_version = tenant.versions.version
        rows = _rows(12)
        reference = Guard(_program(f"V{live_version}")).check_batch(rows)

        async def replay():
            async with server:
                return await asyncio.gather(
                    *(server.check("acme", row) for row in rows)
                )

        responses = asyncio.run(replay())
        for response, expected in zip(responses, reference):
            assert response.verdict == expected
            assert response.version == live_version
