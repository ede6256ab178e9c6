"""Tests for TaskInstance syscall interpretation and RuntimeManager dispatch."""

import pytest

from repro.machines import ConstantLoad
from repro.runtime import AppStatus, InstanceState, Placement
from repro.sdm import ProblemSpecification
from repro.taskgraph import ProblemClass
from repro.util.errors import ConfigurationError
from repro.vmpi import (
    Checkpoint,
    Compute,
    Emit,
    ReadFile,
    Recv,
    Send,
    Sleep,
    WriteFile,
    allreduce,
    barrier,
    bcast,
    gather,
    scatter,
)

from tests.conftest import make_cluster, place_all_on, round_robin_placement


def simple_graph(program, name="app", work=1.0, instances=1, task="t"):
    spec = ProblemSpecification(name).task(task, work=work, instances=instances)
    graph = spec.build()
    node = graph.task(task)
    node.problem_class = ProblemClass.ASYNCHRONOUS
    node.language = "py"
    node.program = program
    return graph


class TestComputeAndCompletion:
    def test_compute_duration_scales_with_speed(self):
        cluster = make_cluster(2, speeds=[1.0, 4.0])

        def program(ctx):
            yield Compute(8.0)
            return "ok"

        g1 = simple_graph(program, name="a1")
        g2 = simple_graph(program, name="a2")
        app1 = cluster.manager.submit(g1, place_all_on(g1, "ws0"))
        app2 = cluster.manager.submit(g2, place_all_on(g2, "ws1"))
        cluster.run()
        assert app1.status is AppStatus.DONE and app2.status is AppStatus.DONE
        assert app1.makespan == pytest.approx(8.0, rel=1e-6)
        assert app2.makespan == pytest.approx(2.0, rel=1e-6)

    def test_result_returned(self):
        cluster = make_cluster(1)

        def program(ctx):
            yield Compute(1.0)
            return ctx.rank * 10

        graph = simple_graph(program, instances=3)
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        cluster.run()
        assert app.results("t") == [0, 10, 20]

    def test_background_load_slows_compute(self):
        cluster = make_cluster(2, loads=[ConstantLoad(0.5), ConstantLoad(0.0)])

        def program(ctx):
            yield Compute(4.0)

        g1 = simple_graph(program, name="a1")
        g2 = simple_graph(program, name="a2")
        a1 = cluster.manager.submit(g1, place_all_on(g1, "ws0"))
        a2 = cluster.manager.submit(g2, place_all_on(g2, "ws1"))
        cluster.run()
        assert a1.makespan == pytest.approx(8.0, rel=1e-6)
        assert a2.makespan == pytest.approx(4.0, rel=1e-6)

    def test_co_resident_contention(self):
        cluster = make_cluster(1)

        def program(ctx):
            yield Compute(5.0)

        graph = simple_graph(program, instances=2)
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        cluster.run()
        # two instances share the CPU: each takes ~10s
        assert app.makespan == pytest.approx(10.0, rel=1e-6)

    def test_saturated_machine_stalls_until_load_drops(self):
        from repro.machines import TraceLoad

        cluster = make_cluster(1, loads=[TraceLoad([(5.0, 0.0)], initial=1.0)])

        def program(ctx):
            yield Compute(2.0)

        graph = simple_graph(program)
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        cluster.run()
        assert app.status is AppStatus.DONE
        assert app.completed_at >= 7.0  # stalled ~5s then computed 2s

    def test_failing_program_fails_app(self):
        cluster = make_cluster(1)

        def program(ctx):
            yield Compute(1.0)
            raise RuntimeError("boom")

        graph = simple_graph(program)
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        cluster.run()
        assert app.status is AppStatus.FAILED
        assert app.record("t", 0).state is InstanceState.FAILED


class TestPrecedenceAndStaging:
    def test_successor_waits_for_predecessor(self):
        cluster = make_cluster(2)
        times = {}

        def first(ctx):
            yield Compute(5.0)
            times["first_done"] = True

        def second(ctx):
            assert times.get("first_done")
            yield Compute(1.0)

        spec = ProblemSpecification("app").task("a", work=5).task("b", work=1)
        spec.after("a", "b")
        graph = spec.build()
        graph.task("a").program = first
        graph.task("b").program = second
        placement = Placement()
        placement.assign("a", 0, "ws0")
        placement.assign("b", 0, "ws1")
        app = cluster.manager.submit(graph, placement)
        cluster.run()
        assert app.status is AppStatus.DONE
        assert app.completed_at >= 6.0

    def test_data_arc_staging_charged_cross_host(self):
        cluster = make_cluster(2)

        def noop(ctx):
            yield Compute(0.1)

        spec = ProblemSpecification("app").task("a", work=1).task("b", work=1)
        spec.flow("a", "b", volume=12_500_000)  # 10s at 1.25 MB/s
        graph = spec.build()
        graph.task("a").program = noop
        graph.task("b").program = noop
        placement = Placement()
        placement.assign("a", 0, "ws0")
        placement.assign("b", 0, "ws1")
        app = cluster.manager.submit(graph, placement)
        cluster.run()
        assert app.makespan > 10.0

    def test_data_arc_free_same_host(self):
        cluster = make_cluster(1)

        def noop(ctx):
            yield Compute(0.1)

        spec = ProblemSpecification("app").task("a", work=1).task("b", work=1)
        spec.flow("a", "b", volume=12_500_000)
        graph = spec.build()
        graph.task("a").program = noop
        graph.task("b").program = noop
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        cluster.run()
        assert app.makespan < 1.0

    def test_missing_placement_rejected(self):
        cluster = make_cluster(1)
        graph = simple_graph(lambda ctx: iter(()))
        with pytest.raises(ConfigurationError):
            cluster.manager.submit(graph, Placement())


class TestMessaging:
    def test_rank_to_rank_send_recv(self):
        cluster = make_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                yield Send(dst=1, data="ping", tag="x")
                src, data = yield Recv(src=1, tag="y")
                return data
            else:
                src, data = yield Recv(src=0, tag="x")
                yield Send(dst=0, data=data + "-pong", tag="y")
                return "served"

        graph = simple_graph(program, instances=2)
        app = cluster.manager.submit(graph, round_robin_placement(graph, ["ws0", "ws1"]))
        cluster.run()
        assert app.results("t") == ["ping-pong", "served"]

    def test_recv_any_source(self):
        cluster = make_cluster(3)

        def program(ctx):
            if ctx.rank == 0:
                got = []
                for _ in range(2):
                    src, data = yield Recv()
                    got.append((src, data))
                return sorted(got)
            yield Send(dst=0, data=f"from{ctx.rank}")
            return None

        graph = simple_graph(program, instances=3)
        app = cluster.manager.submit(
            graph, round_robin_placement(graph, ["ws0", "ws1", "ws2"])
        )
        cluster.run()
        assert app.results("t")[0] == [(1, "from1"), (2, "from2")]

    def test_tag_matching_skips_nonmatching(self):
        cluster = make_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                yield Send(dst=1, data="early", tag="b")
                yield Send(dst=1, data="wanted", tag="a")
                return None
            src, data = yield Recv(tag="a")
            src2, data2 = yield Recv(tag="b")
            return (data, data2)

        graph = simple_graph(program, instances=2)
        app = cluster.manager.submit(graph, round_robin_placement(graph, ["ws0", "ws1"]))
        cluster.run()
        assert app.results("t")[1] == ("wanted", "early")

    def test_stream_channel_between_tasks(self):
        cluster = make_cluster(2)

        def producer(ctx):
            yield Send(dst="consumer[0]", data=41, channel="pipe", tag="d")
            return None

        def consumer(ctx):
            src, data = yield Recv(channel="pipe", tag="d")
            return data + 1

        spec = ProblemSpecification("app").task("producer").task("consumer")
        spec.stream("producer", "consumer", channel="pipe")
        graph = spec.build()
        graph.task("producer").program = producer
        graph.task("consumer").program = consumer
        placement = Placement()
        placement.assign("producer", 0, "ws0")
        placement.assign("consumer", 0, "ws1")
        app = cluster.manager.submit(graph, placement)
        cluster.run()
        assert app.results("consumer") == [42]

    def test_collectives(self):
        cluster = make_cluster(4)

        def program(ctx):
            value = ctx.rank + 1
            total = yield from allreduce(ctx, value, op=sum)
            part = yield from scatter(ctx, [10, 20, 30, 40] if ctx.rank == 0 else None)
            gathered = yield from gather(ctx, part * 2)
            word = yield from bcast(ctx, "hi" if ctx.rank == 0 else None)
            yield from barrier(ctx)
            return (total, part, gathered, word)

        graph = simple_graph(program, instances=4)
        app = cluster.manager.submit(
            graph, round_robin_placement(graph, [f"ws{i}" for i in range(4)])
        )
        cluster.run()
        results = app.results("t")
        assert [r[0] for r in results] == [10, 10, 10, 10]
        assert [r[1] for r in results] == [10, 20, 30, 40]
        assert results[0][2] == [20, 40, 60, 80]
        assert all(r[3] == "hi" for r in results)


class TestResolvedOnceDataPlane:
    """What an instance resolves once per incarnation must follow it when
    it moves, and what it dispatches on must still be open to subclasses."""

    def test_dump_migration_mid_stream_rebuilds_the_sender_ports(self):
        from repro.migration import DumpMigration, MigrationContext
        from repro.netsim import Address

        cluster = make_cluster(3)

        def program(ctx):
            other = 1 - ctx.rank
            echoes = []
            for i in range(6):
                if ctx.rank == 0:
                    yield Send(dst=other, data=i, tag="ping")
                    _, echo = yield Recv(src=other, tag="pong")
                    echoes.append(echo)
                    yield Sleep(1.0)
                else:
                    _, value = yield Recv(src=other, tag="ping")
                    yield Send(dst=other, data=value * 10, tag="pong")
            return echoes

        graph = simple_graph(program, instances=2)
        app = cluster.manager.submit(graph, round_robin_placement(graph, ["ws0", "ws1"]))
        cluster.run(until=2.5)
        record = app.record("t", 1)
        instance = record.instance
        before = instance._rank_port
        assert before.owner == Address("ws1", instance.name)
        DumpMigration(MigrationContext(cluster.manager, cluster.net)).migrate(
            app, record, "ws2"
        )
        cluster.run()
        assert app.status is AppStatus.DONE
        assert app.results("t")[0] == [0, 10, 20, 30, 40, 50]
        # the moved incarnation kept receiving (its port was rebound) and
        # sends under its new address, from a rebuilt sender port
        assert record.placements == ["ws1", "ws2"]
        assert instance._rank_port is not before
        assert instance._rank_port.owner == Address("ws2", instance.name)
        sources = [
            r.source
            for r in cluster.sim.log.records("chan.send")
            if r.get("span_id") == instance.ctx.trace.span_id
        ]
        assert sources[:3] == [f"ws1/{instance.name}"] * 3
        assert sources[3:] == [f"ws2/{instance.name}"] * 3

    def test_subclassed_syscalls_still_dispatch(self):
        cluster = make_cluster(2)

        class Ping(Send):
            pass

        class Await(Recv):
            pass

        class Crunch(Compute):
            pass

        def program(ctx):
            if ctx.rank == 0:
                yield Ping(dst=1, data="hello", tag="x")
                yield Crunch(2.0)
                return "sent"
            _, data = yield Await(src=0, tag="x")
            return data

        graph = simple_graph(program, instances=2)
        app = cluster.manager.submit(graph, round_robin_placement(graph, ["ws0", "ws1"]))
        cluster.run()
        assert app.results("t") == ["sent", "hello"]
        assert app.makespan == pytest.approx(2.0, abs=0.01)

    def test_unknown_syscall_fails_the_instance_loudly(self):
        from repro.util.errors import SimulationError

        cluster = make_cluster(1)

        def program(ctx):
            yield "not a syscall"

        graph = simple_graph(program)
        cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        with pytest.raises(SimulationError, match="unknown syscall"):
            cluster.run()

    def test_per_message_values_refuse_assignment(self):
        cluster = make_cluster(1)
        cluster.sim.emit("probe", "src", a=1)
        values = [
            (Send(dst=1, data="x"), "data"),
            (Recv(src=0), "src"),
            (Compute(1.0), "work"),
            (cluster.sim.log.last("probe"), "time"),
        ]
        for value, field in values:
            with pytest.raises(AttributeError):
                setattr(value, field, None)
        # keyword construction and defaults are unchanged
        assert Send(dst=1, data="x") == Send(1, "x", 256, None, None)
        assert Recv() == Recv(None, None, None)


class TestChannelLifecycle:
    """The runtime destroys the channels it minted under an application's id
    when that application ends (§4.2: "creation, placement, and
    destruction"); explicitly named channels are their creator's."""

    def _streaming(self, cluster, channel=None):
        def producer(ctx):
            yield Send(dst="consumer[0]", data=1, channel=name)
            yield Send(dst=1, data=2)

        def consumer(ctx):
            yield Recv(channel=name)

        spec = ProblemSpecification("pipe").task("producer", instances=2).task("consumer")
        spec.stream("producer", "consumer", channel=channel)
        graph = spec.build()
        for task, program in (("producer", producer), ("consumer", consumer)):
            node = graph.task(task)
            node.problem_class = ProblemClass.ASYNCHRONOUS
            node.language = "py"
            node.program = program
        app_id = cluster.sim.ids.next("app")
        name = channel or f"{app_id}.producer->consumer"
        return cluster.manager.submit(graph, place_all_on(graph, "ws0"), app_id=app_id)

    def test_done_destroys_what_the_runtime_minted(self):
        cluster = make_cluster(1)
        app = self._streaming(cluster)
        assert sorted(cluster.manager.channels._channels) == [
            f"{app.id}.producer->consumer", f"{app.id}.producer.mpi"
        ]
        cluster.run()
        assert app.status is AppStatus.DONE
        assert len(cluster.manager.channels) == 0

    def test_an_explicitly_named_channel_survives(self):
        cluster = make_cluster(1)
        app = self._streaming(cluster, channel="wire")
        cluster.run()
        assert app.status is AppStatus.DONE
        assert list(cluster.manager.channels._channels) == ["wire"]

    def test_terminate_and_failure_destroy_them_too(self):
        cluster = make_cluster(2)

        def forever(ctx):
            while True:
                yield Sleep(1.0)

        graph = simple_graph(forever, instances=2)
        app = cluster.manager.submit(graph, round_robin_placement(graph, ["ws0", "ws1"]))
        cluster.run(until=3.0)
        assert len(cluster.manager.channels) == 1
        cluster.manager.terminate(app)
        assert len(cluster.manager.channels) == 0

        def crashing(ctx):
            yield Sleep(1.0)
            raise RuntimeError("boom")

        graph = simple_graph(crashing, name="doomed", instances=2)
        doomed = cluster.manager.submit(graph, round_robin_placement(graph, ["ws0", "ws1"]))
        assert len(cluster.manager.channels) == 1
        cluster.run()
        assert doomed.status is AppStatus.FAILED
        assert len(cluster.manager.channels) == 0


class TestOtherSyscalls:
    def test_sleep_advances_time(self):
        cluster = make_cluster(1)

        def program(ctx):
            yield Sleep(3.5)

        graph = simple_graph(program)
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        cluster.run()
        assert app.makespan >= 3.5

    def test_emit_logs(self):
        cluster = make_cluster(1)

        def program(ctx):
            yield Emit("custom.marker", {"value": 7})

        graph = simple_graph(program)
        cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        cluster.run()
        rec = cluster.sim.log.first("custom.marker")
        assert rec is not None and rec.get("value") == 7

    def test_checkpoint_persists_state(self):
        cluster = make_cluster(1)

        def program(ctx):
            yield Compute(1.0)
            yield Checkpoint({"progress": 50}, size=1000)
            yield Compute(1.0)

        graph = simple_graph(program)
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        cluster.run(until=1.5)
        record = cluster.manager.checkpoints.get(app.id, "t", 0)
        assert record is not None and record.state == {"progress": 50}

    def test_checkpoints_dropped_on_completion(self):
        cluster = make_cluster(1)

        def program(ctx):
            yield Checkpoint("s")

        graph = simple_graph(program)
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        cluster.run()
        assert cluster.manager.checkpoints.get(app.id, "t", 0) is None

    def test_remote_file_fetch_slower_than_local(self):
        def program(ctx):
            yield ReadFile("input.dat", size=2_500_000)  # 2s fetch at 1.25MB/s

        c1 = make_cluster(1)
        g1 = simple_graph(program, name="a1")
        a1 = c1.manager.submit(g1, place_all_on(g1, "ws0"))
        c1.run()
        remote_time = a1.makespan

        c2 = make_cluster(1)
        c2.hosts["ws0"].machine.files.add("input.dat")
        g2 = simple_graph(program, name="a2")
        a2 = c2.manager.submit(g2, place_all_on(g2, "ws0"))
        c2.run()
        local_time = a2.makespan
        assert remote_time > local_time + 1.0

    def test_write_file_lands_on_machine(self):
        cluster = make_cluster(1)

        def program(ctx):
            yield WriteFile("out.dat", size=100)

        graph = simple_graph(program)
        cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        cluster.run()
        assert "out.dat" in cluster.hosts["ws0"].machine.files


class TestSuspendResumeKill:
    def test_suspend_pauses_progress(self):
        cluster = make_cluster(1)

        def program(ctx):
            for _ in range(10):
                yield Compute(1.0)

        graph = simple_graph(program)
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        cluster.run(until=2.5)
        inst = app.record("t", 0).instance
        inst.suspend()
        cluster.run(until=20.0)
        assert app.status is AppStatus.RUNNING  # still suspended
        inst.resume()
        cluster.run()
        assert app.status is AppStatus.DONE
        assert app.completed_at > 20.0

    def test_suspended_instance_queues_messages(self):
        cluster = make_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                yield Sleep(1.0)
                yield Send(dst=1, data="hello")
                return None
            src, data = yield Recv()
            return data

        graph = simple_graph(program, instances=2)
        app = cluster.manager.submit(graph, round_robin_placement(graph, ["ws0", "ws1"]))
        cluster.run(until=0.5)
        receiver = app.record("t", 1).instance
        receiver.suspend()
        cluster.run(until=5.0)
        assert receiver.state is InstanceState.SUSPENDED
        receiver.resume()
        cluster.run()
        assert app.results("t")[1] == "hello"

    def test_suspended_during_stage_in_starts_on_resume(self):
        """A stage-in that comes due while the instance is suspended starts
        nothing: the program begins on resume."""

        class SlowBinaries:
            def load_delay(self, task, machine, now):
                return 5.0

        cluster = make_cluster(1)
        cluster.manager.binary_service = SlowBinaries()

        def program(ctx):
            yield Compute(1.0)
            return "ok"

        graph = simple_graph(program)
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        cluster.run(until=1.0)
        inst = app.record("t", 0).instance
        inst.suspend()
        cluster.run(until=10.0)
        assert inst.state is InstanceState.SUSPENDED and inst.started_at is None
        assert getattr(cluster.hosts["ws0"], "_vce_computing", 0) == 0
        inst.resume()
        assert inst.started_at == cluster.sim.now
        assert cluster.hosts["ws0"]._vce_computing == 1
        cluster.run()
        assert app.status is AppStatus.DONE
        assert app.completed_at == pytest.approx(11.0)
        assert cluster.hosts["ws0"]._vce_computing == 0

    def test_kill_terminates_instance(self):
        cluster = make_cluster(1)

        def program(ctx):
            yield Compute(100.0)

        graph = simple_graph(program)
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        cluster.run(until=1.0)
        inst = app.record("t", 0).instance
        inst.kill("test")
        assert inst.state is InstanceState.KILLED

    def test_host_crash_fails_instance(self):
        cluster = make_cluster(2)

        def program(ctx):
            yield Compute(100.0)

        graph = simple_graph(program)
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        cluster.run(until=1.0)
        cluster.hosts["ws0"].crash()
        cluster.run(until=5.0)
        assert app.status is AppStatus.FAILED


class TestTermination:
    def test_terminate_kills_everything(self):
        cluster = make_cluster(2)

        def forever(ctx):
            while True:
                yield Sleep(1.0)

        graph = simple_graph(forever, instances=2)
        app = cluster.manager.submit(graph, round_robin_placement(graph, ["ws0", "ws1"]))
        cluster.run(until=3.0)
        cluster.manager.terminate(app)
        assert app.status is AppStatus.TERMINATED
        for record in app.records.values():
            assert record.instance.state is InstanceState.KILLED
