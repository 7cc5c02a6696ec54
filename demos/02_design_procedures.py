"""The two worst-case design procedures, end to end.

Both pick (k, loop bandwidth) so that the unit-vector THD stays within a
limit over the whole grid-frequency deviation band:

* the deviation-only procedure fixes k at the fastest-settling gain and
  takes the highest feasible bandwidth;
* the harmonic-aware procedure assumes worst-case input distortion too,
  and searches the full (bandwidth, k) grid for the smallest additive
  settling time.
"""

from hgipll import DesignConstraints, hc_mtsd_design, mtsd_design

print("=== deviation-only design (df = 8%, THD limit 1%) ===")
design, report = mtsd_design(DesignConstraints(delta_f=0.08, uthd_limit=0.01))
print(f"k = {design.k:.2f}, f_bw = {design.f_bw:g} Hz, "
      f"t_sd = {design.t_sd * 1e3:.2f} ms")
print(f"feasible bandwidths: {sum(ok for *_, ok in report.swept)}"
      f" of {len(report.swept)}")

print("\n=== harmonic-aware design (adds 5% input THD) ===")
design2, report2 = hc_mtsd_design(
    DesignConstraints(delta_f=0.08, input_thd=0.05, uthd_limit=0.01)
)
print(f"k = {design2.k:.2f}, f_bw = {design2.f_bw:g} Hz, "
      f"t_sd = {design2.t_sd * 1e3:.2f} ms")
print(f"feasible bandwidths: {sum(ok for *_, ok in report2.swept)}"
      f" of {len(report2.swept)}")

print("\nthe harmonic constraint pushes the bandwidth down (more filtering")
print("of the distortion-induced ripple) at the cost of a slower response.")
print("\nper-bandwidth picks near the harmonic-aware optimum:")
for f_bw, k, t_sd, ok in report2.swept:
    if ok and abs(f_bw - design2.f_bw) <= 2.0:
        mark = " <-- chosen" if f_bw == design2.f_bw else ""
        print(f"  f_bw = {f_bw:4.1f} Hz  k = {k:.2f}  t_sd = {t_sd * 1e3:6.2f} ms{mark}")
