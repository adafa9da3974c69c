// Umbrella header: the complete simcov public API.
//
// simcov reproduces "Toward Formalizing a Validation Methodology Using
// Simulation Coverage" (Gupta, Malik, Ashar — DAC 1997). See README.md for
// the architecture overview and DESIGN.md for the module inventory.
//
// Individual headers may of course be included directly; this header is for
// quick experiments and example code.
#pragma once

// Implicit representation substrate.
#include "bdd/bdd.hpp"

// Graph algorithms (SCC, Euler, min-cost flow, Chinese Postman).
#include "graph/digraph.hpp"
#include "graph/min_cost_flow.hpp"
#include "graph/postman.hpp"

// Explicit finite state machines.
#include "fsm/mealy.hpp"
#include "fsm/nondet.hpp"

// Symbolic FSMs and logic networks.
#include "sym/logic_network.hpp"
#include "sym/symbolic_fsm.hpp"

// Backend-neutral test models (explicit + symbolic behind one interface).
#include "model/coverage.hpp"
#include "model/encode.hpp"
#include "model/explicit_model.hpp"
#include "model/symbolic_model.hpp"
#include "model/test_model.hpp"

// Test-sequence generation and coverage.
#include "tour/tour.hpp"

// Checkpoint store (fingerprints, the checkpoint codec, verified files).
#include "store/artifact_store.hpp"
#include "store/codec.hpp"
#include "store/fingerprint.hpp"

// The paper's error model (Definitions 1-4).
#include "errmodel/errmodel.hpp"

// Distinguishability theory (Definition 5) and conformance baselines.
#include "distinguish/distinguish.hpp"
#include "distinguish/wmethod.hpp"

// Homomorphic abstraction (Section 6).
#include "abstraction/abstraction.hpp"

// The DLX processor substrate (Section 7's design).
#include "dlx/arch.hpp"
#include "dlx/isa.hpp"
#include "dlx/isa_model.hpp"
#include "dlx/pipeline.hpp"

// Control test-model derivation (Figure 3).
#include "testmodel/control_sim.hpp"
#include "testmodel/testmodel.hpp"

// Concretization and the validation harness (Figure 1).
#include "validate/concretize.hpp"
#include "validate/harness.hpp"

// Pipeline instrumentation (spans, counters, items, statuses).
#include "obs/event_sink.hpp"

// The streaming validation pipeline (typed stages, cancellation).
#include "pipeline/contracts.hpp"
#include "pipeline/stages.hpp"
#include "pipeline/validation_pipeline.hpp"

// Methodology drivers: requirements, campaigns, reports.
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "core/requirements.hpp"
