// Dynamic BDD variable reordering (sifting) — effectiveness and safety.
//
// Three claims are checked, each with a hard gate so CI fails loudly when
// reordering regresses:
//   1. Recovery — starting from an adversarial (un-interleaved ps/ns)
//      order on the reg_addr_bits=2 DLX control model, one sifting pass
//      must reclaim at least half the live nodes.
//   2. Payoff — on the reg_addr_bits=5 model, building the symbolic FSM
//      under ReorderPolicy::kAuto from an adversarial *initial* order must
//      beat the static default-order build by >= 2x in peak live nodes or
//      wall clock, while reproducing the exact same reachability numbers.
//   3. Invisibility — a symbolic campaign with reordering on must produce
//      a semantic report byte-identical to reordering off, at 1/2/8
//      threads. The report hashes are emitted as rows so CI can assert
//      equality from the --json artifact.
#include <cstdio>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "bench_util.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "sym/symbolic_fsm.hpp"
#include "testmodel/testmodel.hpp"

namespace {

simcov::testmodel::TestModelOptions model_options(unsigned reg_bits) {
  simcov::testmodel::TestModelOptions opt;
  opt.output_sync_latches = false;
  opt.fetch_controller = false;
  opt.aux_outputs = false;
  opt.onehot_opclass = false;
  opt.interlock_registers = false;
  opt.reg_addr_bits = reg_bits;
  return opt;
}

simcov::testmodel::TestModelOptions tiny_campaign_model_options() {
  auto opt = model_options(1);
  opt.reduced_isa = true;
  return opt;
}

/// Worst-case order for the symbolic FSM encoding: the default order
/// interleaves ps_j/ns_j per latch (which keeps the transition relation
/// compact); this one separates them into a ps block followed by an ns
/// block, forcing the relation to remember every latch value across the
/// whole block.
std::vector<unsigned> uninterleaved_order(unsigned num_pi,
                                          unsigned num_latches) {
  std::vector<unsigned> order;
  order.reserve(num_pi + 2 * num_latches);
  for (unsigned k = 0; k < num_pi; ++k) order.push_back(k);
  for (unsigned j = 0; j < num_latches; ++j) order.push_back(num_pi + 2 * j);
  for (unsigned j = 0; j < num_latches; ++j) {
    order.push_back(num_pi + 2 * j + 1);
  }
  return order;
}

}  // namespace

int main(int argc, char** argv) {
  simcov::bench::init(argc, argv);
  using namespace simcov;
  int failures = 0;

  // -------------------------------------------------------------------
  // Section 1: sifting recovers from an adversarial order.
  // -------------------------------------------------------------------
  bench::header("Sifting recovery from an adversarial order (reg bits = 2)");
  {
    const auto model = testmodel::build_dlx_control_model(model_options(2));
    bdd::BddManager mgr;
    sym::SymbolicFsm fsm(mgr, model.circuit);
    const auto fsm_stats = fsm.stats();  // forces the reachability fixpoint
    const std::size_t live_default = mgr.stats().live_nodes;

    mgr.set_order(uninterleaved_order(fsm.num_inputs(), fsm.num_latches()));
    const std::size_t live_adversarial = mgr.stats().live_nodes;

    bench::Timer sift;
    mgr.try_reorder();
    const double sift_seconds = sift.seconds();
    const auto after = mgr.stats();

    bench::row("latches", static_cast<std::size_t>(fsm.num_latches()));
    bench::row("reachable states", fsm_stats.reachable_states);
    bench::row("live nodes, default interleaved order", live_default);
    bench::row("live nodes, adversarial order", live_adversarial);
    bench::row("live nodes after one sifting pass", after.live_nodes);
    bench::row("adjacent-level swaps", after.level_swaps);
    bench::row("sifting pass seconds", sift_seconds);

    const bool gate = after.live_nodes * 2 <= live_adversarial;
    bench::row("GATE sifted*2 <= adversarial", gate ? "pass" : "FAIL");
    if (!gate) ++failures;
  }

  // -------------------------------------------------------------------
  // Section 2: auto-reordering rescues a bad initial order at scale.
  // -------------------------------------------------------------------
  bench::header(
      "Auto-reorder vs static order, full-scale model (reg bits = 5)");
  {
    const auto model = testmodel::build_dlx_control_model(model_options(5));
    const auto num_pi =
        static_cast<unsigned>(model.circuit.primary_inputs.size());
    const auto num_latches =
        static_cast<unsigned>(model.circuit.latches.size());

    // Static reference: default interleaved order, no reordering.
    bench::Timer static_timer;
    bdd::BddManager static_mgr;
    sym::SymbolicFsm static_fsm(static_mgr, model.circuit);
    const auto static_stats = static_fsm.stats();
    const double static_seconds = static_timer.seconds();
    const std::size_t static_peak = static_mgr.stats().peak_live_nodes;

    // Auto: same model, but variables are created first and pushed into
    // the adversarial un-interleaved order (cheap while the tables are
    // empty), then the FSM is built under ReorderPolicy::kAuto — sifting
    // has to discover a good order on its own.
    bench::Timer auto_timer;
    bdd::BddManager auto_mgr;
    (void)auto_mgr.var(num_pi + 2 * num_latches - 1);
    auto_mgr.set_order(uninterleaved_order(num_pi, num_latches));
    auto_mgr.set_reorder_policy(bdd::ReorderPolicy::kAuto);
    sym::SymbolicFsm auto_fsm(auto_mgr, model.circuit);
    const auto auto_stats = auto_fsm.stats();
    const double auto_seconds = auto_timer.seconds();
    const auto auto_bdd = auto_mgr.stats();

    bench::row("latches", static_cast<std::size_t>(num_latches));
    bench::row("static: build+reach seconds", static_seconds);
    bench::row("static: peak live nodes", static_peak);
    bench::row("auto: build+reach seconds", auto_seconds);
    bench::row("auto: peak live nodes", auto_bdd.peak_live_nodes);
    bench::row("auto: sifting passes", auto_bdd.reorders);
    bench::row("auto: adjacent-level swaps", auto_bdd.level_swaps);

    const bool same_semantics =
        static_stats.reachable_states == auto_stats.reachable_states &&
        static_stats.transitions == auto_stats.transitions &&
        static_stats.reachability_iterations ==
            auto_stats.reachability_iterations;
    bench::row("reachability identical to static",
               same_semantics ? "yes" : "NO");
    if (!same_semantics) ++failures;

    const bool gate = auto_bdd.peak_live_nodes * 2 <= static_peak ||
                      auto_seconds * 2.0 <= static_seconds;
    bench::row("GATE auto beats static >=2x (peak nodes or seconds)",
               gate ? "pass" : "FAIL");
    if (!gate) ++failures;
  }

  // -------------------------------------------------------------------
  // Section 3: reordering is invisible in campaign reports.
  // -------------------------------------------------------------------
  bench::header("Campaign report identity: reorder on vs off, 1/2/8 threads");
  {
    core::CampaignOptions base;
    base.model_options = tiny_campaign_model_options();
    base.method = core::TestMethod::kTransitionTourSet;
    base.backend = core::BackendChoice::kSymbolic;
    base.seed = 1;
    const std::vector<dlx::PipelineBug> bugs{
        dlx::PipelineBug::kNoLoadUseStall,
        dlx::PipelineBug::kNoSquashOnTakenBranch,
    };

    std::string reference;
    bool all_identical = true;
    for (const bool reorder_on : {false, true}) {
      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        core::CampaignOptions opt = base;
        opt.threads = threads;
        opt.reorder = reorder_on ? bdd::ReorderPolicy::kAuto
                                 : bdd::ReorderPolicy::kNone;
        auto result = core::run_campaign(opt, bugs);
        // BDD/symbolic statistics legitimately differ between reorder on
        // and off (that is the point of reordering); everything the user
        // observes — coverage, verdicts, sequences — must not.
        result.bdd_stats.reset();
        result.symbolic_stats.reset();
        const std::string hash =
            bench::report_hash(core::semantic_json(std::move(result)));
        if (reference.empty()) reference = hash;
        all_identical = all_identical && hash == reference;
        char label[64];
        std::snprintf(label, sizeof label,
                      "report hash (reorder %s, threads %zu)",
                      reorder_on ? "on" : "off", threads);
        bench::row(label, hash);
      }
    }
    bench::row("GATE all report hashes identical",
               all_identical ? "pass" : "FAIL");
    if (!all_identical) ++failures;
  }

  std::printf(
      "\nShape check: a single sifting pass undoes an adversarial order,\n"
      "kAuto makes the full-scale build robust to a bad initial order, and\n"
      "no choice of reorder policy or thread count moves a byte of the\n"
      "semantic campaign report.\n");
  return simcov::bench::finish(failures == 0 ? 0 : 1);
}
