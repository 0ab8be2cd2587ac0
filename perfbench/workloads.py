"""The four workloads.  Each is closed loop with one client.

A workload object builds its testbed in ``setup()`` (imports, testbed,
connection set-up: everything up to the first op being ready) and runs
ops in ``measure()`` until ``warmup + min_measured`` ops have started and
the op clock has passed the deadline.  Warm-up ops are discarded.

Simulated-clock metrics and exact counts come from a fixed window of ops
(``warmup`` .. ``warmup + window``), so they do not depend on how many
ops host speed allowed: they repeat exactly from run to run.  Every op
is checked and a failed check is counted; an error the testbed cannot
continue from (a failed CQE, a short send) stops the worker.

Testbeds come from the ``repro.bench.configs`` functions and are driven
through ``QpipInterface`` verbs and ``TcpSocket``; the scenario runs
through ``repro.gate``.  Counters are read from public attributes; the
kernel event count is the one private field read, as ``repro.bench.perf``
does.
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
from typing import Dict, List, Optional

from measure import OpClock, median

MSG = 16 * 1024
PORT = 5301
#: Simulated µs per ``sim.run`` step while driving a testbed.
STEP_US = 200.0
#: Sending-host CPU categories reported as ``hoststack.cpu_us.<name>``.
#: The host stack charges checksum work inside ``net-tx``/``net-rx``.
HOST_CATEGORIES = {"syscall": "syscall", "copy": "copy", "net_tx": "net-tx",
                   "net_rx": "net-rx", "interrupt": "net-intr",
                   "wakeup": "wakeup"}


def import_repro(root: str) -> None:
    """Import ``repro`` from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import repro
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if not where.startswith(os.path.join(src, "")):
        raise ImportError(f"repro imported from {where}, not from {src}")


def _payloads(seed: int, count: int, size: int) -> List[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(size) for _ in range(count)]


class Workload:
    """Shared run loop and bookkeeping."""

    name = ""
    calib_every = 100
    warmup = 0
    window = 0
    #: Ops measured even past the deadline: the exact window plus margin,
    #: and, over the run's workers, enough ops for the tail percentile.
    min_measured = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.clock: Optional[OpClock] = None
        self.exact: Dict[str, float] = {}
        self.sim_ops: List[float] = []   # simulated µs per window op
        self.deadline = float("inf")     # op-clock stop time, set after warm-up

    # -- check accounting ---------------------------------------------------

    def expect(self, ok: bool, what: str) -> None:
        """Count one op's check; keep the first few failures' reasons."""
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)

    def keep_going(self, started: int) -> bool:
        """Start another op?  Warm-up and ``min_measured`` ops always run;
        after them, ops run until the op clock passes the deadline."""
        return (started < self.warmup + self.min_measured
                or self.clock.now() < self.deadline)


# ---------------------------------------------------------------------------
# Simulated testbeds driven op by op
# ---------------------------------------------------------------------------

class SimWorkload(Workload):
    """A two-host testbed whose client process runs the ops."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sim = None
        self.ready = False
        self.done = False
        self.go = None
        self.marks: List[Dict[str, float]] = []

    def run_until(self, flag: str) -> None:
        sim = self.sim
        while not getattr(self, flag):
            sim.run(until=sim.now + STEP_US)
            for proc in self.procs:
                if proc.triggered and not proc.ok:
                    raise proc.value

    def setup(self) -> None:
        self.build()
        self.run_until("ready")

    def measure(self, seconds: float, clock: OpClock) -> None:
        self.clock = clock
        self.deadline_s = seconds
        self.go.succeed()
        self.run_until("done")

    def begin_measuring(self) -> None:
        """Called by the client when the warm-up ops are done."""
        self.clock.start()
        self.deadline = self.clock.now() + self.deadline_s

    # -- the exact window ---------------------------------------------------

    def mark(self) -> None:
        """Snapshot every counter at a window edge."""
        snap = self.counters()
        snap["now"] = self.sim.now
        self.marks.append(snap)

    def window_delta(self, key: str) -> float:
        return self.marks[1][key] - self.marks[0][key]

    def link_counters(self, links, switch_fwd: int, switch_drops: int,
                      nics, hosts, conns) -> Dict[str, float]:
        dirs = [l.direction_from(end) for l in links for end in (l.a, l.b)]
        out = {
            "sim.events": self.sim._events_processed,
            "hw.nic_busy_us": sum(n.processor.busy_time for n in nics),
            "hw.host_cpu_busy_us": sum(h.cpu.busy_time for h in hosts),
            "hw.doorbells": sum(n.doorbells_rung for n in nics),
            "hw.dma_bytes": sum(h.pci.bytes_moved for h in hosts),
            "net.tcp.segs": sum(c.stats.segs_out for c in conns),
            "net.tcp.retransmits": sum(c.stats.retransmitted_segs
                                       for c in conns),
            "fabric.pkts": sum(d.packets_sent for d in dirs),
            "fabric.drops": sum(d.packets_dropped for d in dirs)
            + switch_drops,
            "fabric.switch_fwd": switch_fwd,
            "sender.cpu_us": hosts[0].cpu.busy_time,
        }
        by_cat = hosts[0].cpu.busy_by_category
        for name, category in HOST_CATEGORIES.items():
            out[f"hoststack.cpu_us.{name}"] = by_cat.get(category, 0.0)
        return out

    def finish_exact(self) -> None:
        """Per-op exact counts and simulated metrics over the window."""
        n = self.window
        elapsed = self.window_delta("now")
        exact = {k: self.window_delta(k) / n for k in self.marks[0]
                 if k not in ("now", "sender.cpu_us")}
        segs = self.window_delta("net.tcp.segs")
        retx = self.window_delta("net.tcp.retransmits")
        exact["net.tcp.useful_ratio"] = (segs - retx) / segs
        exact["collectives.steps"] = 0
        exact["collectives.bytes"] = 0
        self.exact = exact
        self.sim_metrics = {
            "sim_op_us_p50": median(self.sim_ops),
            "sim_mb_s": self.app_bytes_per_op * n / elapsed * 1e6 / (1 << 20),
            "sim_host_cpu_pct":
                100.0 * self.window_delta("sender.cpu_us") / elapsed,
        }
        self.pkts_per_op = exact["fabric.pkts"]


class QpipWorkload(SimWorkload):
    """Shared QPIP testbed plumbing."""

    def testbed(self, **kw):
        from repro.bench.configs import build_qpip_pair
        from repro.sim import Simulator
        self.sim = Simulator()
        self.go = self.sim.event()
        self.a, self.b, self.fabric = build_qpip_pair(self.sim, **kw)
        self.conns = []

    def counters(self) -> Dict[str, float]:
        nodes = (self.a, self.b)
        links = [self.fabric.host_link(h) for h in ("h0", "h1")]
        sw = self.fabric.switches[0]
        return self.link_counters(
            links, sw.forwarded, sw.dropped_no_route + sw.dropped_fault,
            [n.nic for n in nodes], [n.host for n in nodes], self.conns)

    def endpoint_conn(self, node, qp):
        return node.firmware.endpoints[qp.qp_num].conn


class Rtt1B(QpipWorkload):
    """One 1-byte QPIP TCP round trip, Fig. 3 configuration."""

    name = "rtt_1b"
    calib_every = 100
    warmup = 50
    window = 400
    min_measured = 450
    paper_key = "rtt"
    app_bytes_per_op = 2

    def build(self) -> None:
        from repro.hw import lanai_fw_checksum
        self.testbed(nic_timing=lanai_fw_checksum())
        self.payload = _payloads(self.seed, 1, 4096)[0]
        self.procs = [self.sim.process(self.server()),
                      self.sim.process(self.client())]

    def _qp(self, iface):
        from repro.core import QPTransport
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq)
        bufs = {}
        for _ in range(4):
            buf = yield from iface.register_memory(4096)
            wr = yield from iface.post_recv(qp, [buf.sge()])
            bufs[wr] = buf
        sbuf = yield from iface.register_memory(4096)
        return cq, qp, bufs, sbuf

    def server(self):
        iface = self.b.iface
        cq, qp, bufs, sbuf = yield from self._qp(iface)
        listener = yield from iface.listen(PORT)
        yield from iface.accept(listener, qp)
        self.conns.append(self.endpoint_conn(self.b, qp))
        while True:
            for cqe in (yield from iface.spin(cq)):
                if cqe.opcode.value != "RECV":
                    continue
                buf = bufs.pop(cqe.wr_id)
                sbuf.write(buf.read(cqe.byte_len))
                yield from iface.post_send(qp, [sbuf.sge(0, cqe.byte_len)])
                wr = yield from iface.post_recv(qp, [buf.sge()])
                bufs[wr] = buf

    def client(self):
        from repro.net.addresses import Endpoint
        sim = self.sim
        iface = self.a.iface
        cq, qp, bufs, sbuf = yield from self._qp(iface)
        yield sim.timeout(1000)   # let the server listen
        yield from iface.connect(qp, Endpoint(self.b.addr, PORT))
        self.conns.insert(0, self.endpoint_conn(self.a, qp))
        self.ready = True
        yield self.go
        k = 0
        while self.keep_going(k):
            if k == self.warmup:
                self.begin_measuring()
                self.mark()
            byte = self.payload[k % len(self.payload):][:1]
            sbuf.write(byte)
            t0, s0 = self.clock.now(), sim.now
            yield from iface.post_send(qp, [sbuf.sge(0, 1)])
            echo = None
            while echo is None:
                for cqe in (yield from iface.spin(cq)):
                    if not cqe.ok:
                        raise RuntimeError(f"CQE {cqe.opcode.value} "
                                           f"{cqe.status.name}")
                    if cqe.opcode.value == "RECV":
                        buf = bufs.pop(cqe.wr_id)
                        echo = buf.read(cqe.byte_len)
                        wr = yield from iface.post_recv(qp, [buf.sge()])
                        bufs[wr] = buf
            wall = self.clock.now() - t0
            self.attempted += k >= self.warmup
            self.expect(echo == byte, f"op {k}: echoed {echo!r}, "
                                      f"sent {byte!r}")
            k += 1
            if k > self.warmup:
                if k <= self.warmup + self.window:
                    self.sim_ops.append(sim.now - s0)
                    if k == self.warmup + self.window:
                        self.mark()
                self.clock.record(wall)
        self.done = True


class Ttcp1500(QpipWorkload):
    """QPIP ttcp at queue depth 8, MTU 1500 (the MTU-sweep configuration).

    In QP message mode one message is one TCP segment, so at MTU 1500 the
    largest message is the connection's ``max_message`` (1428 B), and the
    MTU sweep streams messages of exactly that size; one op is one such
    message, from ``post_send`` to its send CQE.
    """

    name = "ttcp_1500"
    calib_every = 200
    warmup = 50
    window = 400
    min_measured = 450
    depth = 8
    paper_key = "ttcp"

    def build(self) -> None:
        self.testbed(mtu=1500)
        self.patterns = _payloads(self.seed, 16, MSG)
        self.rx_bad: List[int] = []
        self.rx_count = 0
        self.sent: Optional[int] = None
        self.procs = [self.sim.process(self.server()),
                      self.sim.process(self.client())]

    def server(self):
        from repro.core import QPTransport
        iface = self.b.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq,
                                        max_recv_wr=20)
        bufs = {}
        for _ in range(16):
            buf = yield from iface.register_memory(MSG)
            wr = yield from iface.post_recv(qp, [buf.sge()])
            bufs[wr] = buf
        listener = yield from iface.listen(PORT)
        yield from iface.accept(listener, qp)
        self.conns.append(self.endpoint_conn(self.b, qp))
        while True:
            for cqe in (yield from iface.wait(cq)):
                buf = bufs.pop(cqe.wr_id)
                want = self.patterns[self.rx_count % len(self.patterns)]
                if not cqe.ok or buf.read(cqe.byte_len) != want:
                    self.rx_bad.append(self.rx_count)
                self.rx_count += 1
                self.settle()
                wr = yield from iface.post_recv(qp, [buf.sge()])
                bufs[wr] = buf

    def settle(self) -> None:
        """Done once the client has stopped and every message arrived.
        A message the receiver got wrong fails its op."""
        if self.sent is None or self.rx_count < self.sent:
            return
        for idx in self.rx_bad:
            if idx >= self.warmup:
                self.expect(False, f"op {idx}: receiver saw wrong bytes")
        self.done = True

    def client(self):
        from repro.core import QPTransport
        from repro.net.addresses import Endpoint
        sim = self.sim
        iface = self.a.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq,
                                        max_send_wr=self.depth + 4)
        slots = []
        for _ in range(self.depth):
            slots.append((yield from iface.register_memory(MSG)))
        yield sim.timeout(1000)
        yield from iface.connect(qp, Endpoint(self.b.addr, PORT))
        self.conns.insert(0, self.endpoint_conn(self.a, qp))
        self.app_bytes_per_op = self.conns[0].max_message
        self.patterns = [p[:self.app_bytes_per_op] for p in self.patterns]
        self.ready = True
        yield self.go
        posted = {}    # wr_id -> (op index, slot, wall t0, sim t0)
        k = done = 0
        free = list(range(self.depth))
        stopping = False
        while posted or not stopping:
            while free and not stopping:
                if k == self.warmup:
                    self.begin_measuring()
                slot = free.pop()
                slots[slot].write(self.patterns[k % len(self.patterns)])
                wr = yield from iface.post_send(
                    qp, [slots[slot].sge(0, self.app_bytes_per_op)])
                posted[wr] = (k, slot, self.clock.now(), sim.now)
                k += 1
                stopping = not self.keep_going(k)
            for cqe in (yield from iface.wait(cq)):
                idx, slot, t0, s0 = posted.pop(cqe.wr_id)
                wall = self.clock.now() - t0
                free.append(slot)
                if idx == self.warmup - 1:
                    self.mark()
                if idx < self.warmup:
                    continue
                self.attempted += 1
                self.expect(cqe.ok and cqe.byte_len == self.app_bytes_per_op,
                            f"op {idx}: {cqe.status.name} {cqe.byte_len}B")
                done += 1
                if done <= self.window:
                    self.sim_ops.append(sim.now - s0)
                    if done == self.window:
                        self.mark()
                self.clock.record(wall)
        # Deliveries can lag send CQEs; the receiver settles the run.
        self.sent = k
        self.settle()


class SockTtcp(SimWorkload):
    """16 KB TcpSocket sends on the IP/GigE baseline (Fig. 4)."""

    name = "sock_ttcp"
    calib_every = 50
    warmup = 16
    window = 200
    min_measured = 250
    paper_key = "sock"
    app_bytes_per_op = MSG

    def build(self) -> None:
        from repro.bench.configs import build_gige_pair
        from repro.sim import Simulator
        self.sim = Simulator()
        self.go = self.sim.event()
        self.a, self.b, self.fabric = build_gige_pair(self.sim)
        self.patterns = _payloads(self.seed, 16, MSG)
        self.conns = []
        self.starts: List[tuple] = []
        self.sent_ops = self.rx_ops = 0
        self.client_done = False
        self.procs = [self.sim.process(self.server()),
                      self.sim.process(self.client())]

    def counters(self) -> Dict[str, float]:
        links = [self.fabric.host_link(h) for h in ("h0", "h1")]
        sw = self.fabric.switch
        return self.link_counters(
            links, sw.forwarded,
            sw.dropped_overflow + sw.red_dropped + sw.dropped_fault,
            [], [self.a.host, self.b.host], self.conns)

    def server(self):
        from repro.hoststack import TcpSocket
        sim = self.sim
        lsock = TcpSocket(self.b.kernel, self.b.addr)
        lsock.listen(PORT)
        conn = yield from lsock.accept()
        self.conns.append(conn.conn)
        pending = b""
        k = done = 0
        while True:
            data = yield from conn.recv(1 << 20)
            pending += data.to_bytes()
            while len(pending) >= MSG:
                msg, pending = pending[:MSG], pending[MSG:]
                idx, t0, s0 = self.starts[k]
                wall = self.clock.now() - t0
                ok = msg == self.patterns[k % len(self.patterns)]
                k += 1
                if idx == self.warmup - 1:
                    self.mark()
                if idx < self.warmup:
                    continue
                self.attempted += 1
                self.expect(ok, f"op {idx}: received wrong bytes")
                done += 1
                if done <= self.window:
                    self.sim_ops.append(sim.now - s0)
                    if done == self.window:
                        self.mark()
                self.clock.record(wall)
            self.rx_ops = k
            self.settle()

    def settle(self) -> None:
        if self.client_done and self.rx_ops == self.sent_ops:
            self.done = True

    def client(self):
        from repro.hoststack import TcpSocket
        from repro.net.addresses import Endpoint
        from repro.net.packet import BytesPayload
        sim = self.sim
        sock = TcpSocket(self.a.kernel, self.a.addr)
        yield from sock.connect(Endpoint(self.b.addr, PORT))
        self.conns.insert(0, sock.conn)
        self.ready = True
        yield self.go
        k = 0
        while self.keep_going(k):
            if k == self.warmup:
                self.begin_measuring()
            self.starts.append((k, self.clock.now(), sim.now))
            sent = yield from sock.send(
                BytesPayload(self.patterns[k % len(self.patterns)]))
            if sent != MSG:
                raise RuntimeError(f"op {k}: send took {sent} of {MSG} bytes")
            k += 1
            self.sent_ops = k
        self.client_done = True
        self.settle()


# ---------------------------------------------------------------------------
# Gate scenario: one run_scenario per op
# ---------------------------------------------------------------------------

SCENARIO = "coll_allreduce_trunk_drop"
#: The committed seed of the scenario; ops are checked against its golden.
SCENARIO_SEED = 62


class AllreduceLossy(Workload):
    """One ``run_scenario`` of the lossy NIC-offloaded allreduce."""

    name = "allreduce_lossy"
    calib_every = 1
    warmup = 1
    window = 1
    min_measured = 8
    paper_key = None

    def setup(self) -> None:
        from repro.gate import load_scenario, read_golden
        root = os.path.join(os.getcwd(), "scenarios")
        spec = load_scenario(os.path.join(root, f"{SCENARIO}.yaml"))
        self.spec = dataclasses.replace(spec, seed=SCENARIO_SEED)
        self.golden = read_golden(root, SCENARIO)["digests"]

    def measure(self, seconds: float, clock: OpClock) -> None:
        from repro.gate import compare_digests, run_scenario
        self.clock = clock
        k = 0
        while self.keep_going(k):
            if k == self.warmup:
                clock.start()
                self.deadline = clock.now() + seconds
            t0 = clock.now()
            out = run_scenario(self.spec)
            wall = clock.now() - t0
            k += 1
            if k <= self.warmup:
                continue
            self.attempted += 1
            self.expect(not out["violations"],
                        "; ".join(out["violations"][:3]))
            drift = compare_digests(self.golden, out["digests"],
                                    self.spec.tolerances)
            self.expect(not drift, f"golden drift: {drift[:3]}")
            self.digests = out["digests"]
            clock.record(wall)

    def finish_exact(self) -> None:
        """Exact counts from the gate metrics; the collective's simulated
        completion, host CPU, doorbells and DMA bytes from one extra untimed
        single-process run, because the gate's digests do not carry them."""
        from repro.cluster import ShardWorker
        cspec = self.spec.cluster_spec()
        worker = ShardWorker(cspec, 0, 1)
        worker.run_to(cspec.horizon)
        hosts = [worker.nodes[i].host for i in sorted(worker.nodes)]
        oracle = worker.finish()
        flows = oracle["flows"]
        ranks = [flows[k] for k in sorted(flows)]
        m = self.digests["metrics"]

        def counter(name):
            entry = m.get(name)
            return entry["value"] if entry else 0

        segs = sum(v["value"] for k, v in m.items()
                   if k.startswith("nic.") and k.endswith(".tx_pkts"))
        retx = counter("tcp.retransmitted_segs")
        self.exact = {
            "sim.events": oracle["events"],
            "hw.nic_busy_us": sum(v["sum"] for k, v in m.items()
                                  if k.startswith("fw.stage_us.")),
            "hw.host_cpu_busy_us": sum(h.cpu.busy_time for h in hosts),
            "hw.doorbells": sum(worker.nodes[i].nic.doorbells_rung
                                for i in worker.nodes),
            "hw.dma_bytes": sum(h.pci.bytes_moved for h in hosts),
            "net.tcp.segs": segs,
            "net.tcp.retransmits": retx,
            "net.tcp.useful_ratio": (segs - retx) / segs,
            "fabric.pkts": counter("link.pkts"),
            "fabric.drops": counter("link.dropped"),
            "fabric.switch_fwd": counter("fabric.switch_fwd"),
            "collectives.steps": sum(r["stats"]["steps"] for r in ranks),
            "collectives.bytes": sum(r["stats"]["bytes_sent"]
                                     for r in ranks),
        }
        for name in HOST_CATEGORIES:
            self.exact[f"hoststack.cpu_us.{name}"] = 0
        done = max(r["done_at"] for r in ranks)
        op_us = [r["stats"]["wall_time_us"] for r in ranks]
        vec_bytes = ranks[0]["result_len"] * 8
        self.sim_metrics = {
            "sim_op_us_p50": median(op_us),
            "sim_mb_s": vec_bytes / median(op_us) * 1e6 / (1 << 20),
            "sim_host_cpu_pct": 100.0 * hosts[0].cpu.busy_time / done,
        }
        self.pkts_per_op = counter("link.pkts")


WORKLOADS = {cls.name: cls for cls in (Rtt1B, Ttcp1500, SockTtcp,
                                       AllreduceLossy)}
