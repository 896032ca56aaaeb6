// Ablation (§3) — window gaming: how much a pre-2015 Level 1 submission
// could shave off its power number by placing the measurement window over
// the cheapest legal stretch of the run.  Reproduces the TSUBAME-KFC
// (-10.9%) and L-CSC (-23.9% efficiency ~ -19% power) episodes in shape,
// and shows the 2015 full-core-phase rule eliminating the exploit.

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/gaming.hpp"
#include "sim/catalog.hpp"
#include "util/table.hpp"

int main() {
  using namespace pv;
  bench::banner("Ablation: window gaming (§3)",
                "best/worst legal v1.2 Level 1 windows per system");

  std::vector<catalog::ProfiledSystem> systems = catalog::table2_systems();
  systems.push_back(catalog::tsubame_kfc());

  TextTable t({"system", "core avg (kW)", "best window (kW)",
               "gain (power)", "window spread", "2015-rule window"});
  for (const auto& sys : systems) {
    const CalibratedSystemProfile prof = catalog::make_profile(sys);
    const PowerTrace trace = prof.full_run_trace(
        Seconds{sys.hpl_runtime.value() >= 3600.0 * 10.0 ? 30.0 : 5.0},
        sys.noise_sigma_frac, 0.9, /*seed=*/99);
    const auto g = analyze_window_gaming(trace, prof.phases());
    // Appended, not "-" + ...: GCC 12 flags that operator+ at -O3
    // (-Wrestrict, a false positive).
    std::string gain = "-";
    gain += fmt_percent(g.best_reduction, 1);
    t.add_row({sys.name, fmt_fixed(g.full_core_avg.value() / 1000.0, 1),
               fmt_fixed(g.best_window.mean.value() / 1000.0, 1), gain,
               fmt_percent(g.spread, 1), "full core phase (no choice)"});
  }
  std::cout << t.render();

  std::cout <<
      "\nPaper reference points: TSUBAME-KFC gained 10.9% in Nov 2013 by\n"
      "interval selection; L-CSC could have gained 23.9% in efficiency.\n"
      "CPU systems (Colosse, Sequoia) are not gameable (<1%); in-core GPU\n"
      "systems are, by >10% within the legal middle-80% region, with total\n"
      "window spread above 20% — the paper's headline timing variation.\n";
  return 0;
}
