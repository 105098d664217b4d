// Reproduces Figure 14: intra-element vs inter-element flux time for the
// H-tree and Bus interconnects across the paper's four case studies, and
// the ~2.16x H-tree time saving. The cases and the table come from the
// shared eval/figures library that tools/paper_eval also runs.
#include "bench_util.h"
#include "eval/figures.h"

using namespace wavepim;

int main() {
  bench::header("Figure 14 — Comparison between H-Tree and Bus");

  const auto data = eval::compute_fig14_data();
  eval::fig14_table(data).print();
  std::printf("\nPaper inter-element share of flux execution: 21.62%% "
              "(H-tree) / 58.41%% (Bus) without expansion, 42.77%% / "
              "69.96%% with expansion.\n");

  // Rows are case-major, H-tree before Bus.
  bench::ShapeChecks checks;
  double saving_sum = 0.0;
  for (std::size_t i = 0; i + 1 < data.rows.size(); i += 2) {
    const auto& htree = data.rows[i];
    const auto& bus = data.rows[i + 1];
    checks.expect(bus.flux_intra + bus.flux_inter >
                      htree.flux_intra + htree.flux_inter,
                  htree.label + ": bus flux slower than H-tree");
    saving_sum += bus.step_time / htree.step_time;
  }
  const double avg_saving =
      saving_sum / (static_cast<double>(data.rows.size()) / 2.0);
  std::printf("\nAverage whole-step H-tree time saving vs Bus: %.2fx "
              "(paper: ~2.16x on flux-heavy phases)\n\n",
              avg_saving);
  checks.expect_between(avg_saving, 1.1, 5.0,
                        "H-tree saves meaningful time over the bus");

  // Expansion raises the inter-element share (the paper's second pair):
  // the H-tree rows of Acoustic_4 on 512MB (N) and on 2GB (Ep).
  checks.expect(data.rows[2].inter_share > data.rows[0].inter_share,
                "expansion increases the inter-element share (Fig. 14)");
  return checks.exit_code();
}
