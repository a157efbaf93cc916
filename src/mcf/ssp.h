// Alternative min-cost flow solvers used as cross-check oracles for the
// network simplex and as ablation subjects (bench_flow_solvers).
//
//  - solve_ssp: successive shortest paths with Dijkstra + Johnson
//    potentials; negative arc costs are handled by a Bellman–Ford
//    negative-cycle-canceling preprocessing pass. Pass an McfWorkspace to
//    reuse the residual-network and Dijkstra allocations across calls
//    (ws->ssp_augmentations reports the augmentation count).
//  - solve_cycle_canceling: Klein's algorithm — establish any feasible flow,
//    then cancel Bellman–Ford negative cycles until optimal.
//
// Both refuse the costs the network simplex refuses (big_m_cost in mcf.h)
// and return solutions satisfying the same dual contract (see mcf.h), so
// check_flow_optimal() applies uniformly. Their potentials are Bellman–Ford
// distances of the optimal residual network, |π| <= (n − 1)·max|cost|,
// inside the bound canonicalize_potentials relies on.
#pragma once

#include "mcf/mcf.h"
#include "mcf/workspace.h"

namespace mft {

McfSolution solve_ssp(const McfProblem& p);
McfSolution solve_ssp(const McfProblem& p, McfWorkspace& ws);
McfSolution solve_cycle_canceling(const McfProblem& p);

}  // namespace mft
