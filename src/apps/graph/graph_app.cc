#include "apps/graph/graph_app.hh"

#include "machine/machine.hh"
#include "sim/logging.hh"

namespace alewife::apps::graph {

GraphAppBase::GraphAppBase(GraphAppParams p) : p_(std::move(p))
{
    g_ = workload::makeGraph(p_.graph);
    root_ = p_.root >= 0 ? p_.root : g_.defaultRoot();
    if (root_ >= g_.n)
        ALEWIFE_PANIC("graph root ", root_, " out of range (n=", g_.n,
                      ")");
}

void
GraphAppBase::checkMachine(const Machine &m) const
{
    if (m.config().nodes() != p_.graph.nprocs) {
        ALEWIFE_PANIC(name(), ": machine has ", m.config().nodes(),
                      " nodes but GraphParams::nprocs is ",
                      p_.graph.nprocs);
    }
    // A new run invalidates the previous run's harvested result.
    result_.clear();
}

} // namespace alewife::apps::graph
