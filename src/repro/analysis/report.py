"""Human-readable rendering of a :class:`KernelAnalysis` (debugging aid and
the ``catt analyze`` CLI output)."""

from __future__ import annotations

from .kernel_info import KernelAnalysis


def _dist(elems: int | None, byts: int | None) -> str:
    """``C=<elems> (<bytes>B)`` fragment, or ``irregular``."""
    if elems is None:
        return "irregular"
    return f"{elems} ({byts}B)"


def format_analysis(analysis: KernelAnalysis) -> str:
    from .dataflow.safety import findings_for_analysis

    occ = analysis.occupancy
    lines = [
        f"kernel {analysis.kernel.name}  block={analysis.block_dim}",
        f"  occupancy: {occ.warps_per_tb} warps/TB x {occ.tb_sm} TBs/SM "
        f"(shm={occ.tb_shm}, reg={occ.tb_reg}, hw={occ.tb_hw})",
        f"  carveout: {occ.shared_carveout_kb} KB shared, "
        f"L1D {occ.l1d_bytes // 1024} KB, "
        f"regs/thread ~{occ.registers_per_thread}",
    ]
    findings = findings_for_analysis(analysis)
    by_loop: dict[int | None, list] = {}
    for f in findings:
        by_loop.setdefault(f.loop_id, []).append(f)
    for la in analysis.loops:
        rec, dec, fp = la.record, la.decision, la.footprint
        codes = sorted({f.code for f in by_loop.get(rec.loop_id, [])})
        suffix = f"  [{', '.join(codes)}]" if codes else ""
        lines.append(
            f"  loop #{rec.loop_id} depth={rec.depth} iter={rec.iterator!r} "
            f"step={rec.step} reuse={la.has_reuse}{suffix}"
        )
        for af in fp.per_access:
            loc = af.locality
            rw = ("R" if loc.access.is_read else "") + ("W" if loc.access.is_write else "")
            c_tid = _dist(loc.inter_thread_elems, loc.inter_thread_bytes)
            c_i = _dist(loc.intra_thread_elems, loc.intra_thread_bytes)
            lines.append(
                f"    {loc.access.array}[{rw}] C_tid={c_tid} C_i={c_i} "
                f"REQ_warp={af.req_warp}"
            )
        status = "fits" if not dec.needed else (
            f"throttle N={dec.n} M={dec.m} -> TLP{dec.tlp}" if dec.fits
            else "unresolvable (left untouched)"
        )
        lines.append(
            f"    SIZE_req={fp.size_req_lines} lines vs L1D={dec.l1d_lines} "
            f"lines: {status}"
        )
    # Findings not tied to any analysed loop (barriers, shared races).
    extra = [f for f in findings if f.loop_id is None
             or all(f.loop_id != la.record.loop_id for la in analysis.loops)]
    for f in sorted(extra, key=lambda f: (f.code, f.line or 0)):
        lines.append(f"  {f}")
    return "\n".join(lines)


def analysis_summary(analysis: KernelAnalysis) -> dict:
    """JSON-serialisable digest of a :class:`KernelAnalysis`.

    Used by run manifests (``catt profile``) so a trace artifact records the
    compile-time decisions alongside the wall-clock phases.
    """
    occ = analysis.occupancy
    loops = []
    for la in analysis.loops:
        dec = la.decision
        loops.append({
            "loop_id": la.loop_id,
            "depth": la.record.depth,
            "iterator": la.record.iterator,
            "reuse": la.has_reuse,
            "size_req_lines": la.footprint.size_req_lines,
            "l1d_lines": dec.l1d_lines,
            "needed": dec.needed,
            "fits": dec.fits,
            "n": dec.n,
            "m": dec.m,
            "tlp": list(dec.tlp),
        })
    return {
        "kernel": analysis.kernel.name,
        "block": list(analysis.block_dim),
        "occupancy": {
            "warps_per_tb": occ.warps_per_tb,
            "tb_sm": occ.tb_sm,
            "shared_carveout_kb": occ.shared_carveout_kb,
            "l1d_bytes": occ.l1d_bytes,
        },
        "tb_m": analysis.tb_m,
        "loops": loops,
    }
