#include "apps/graph/graph_app.hh"

#include "machine/machine.hh"
#include "sim/logging.hh"

namespace alewife::apps::graph {

GraphInput::GraphInput(const GraphAppParams &p)
    : g(workload::makeGraph(p.graph)),
      root(p.root >= 0 ? p.root : g.defaultRoot())
{
    if (root >= g.n)
        ALEWIFE_PANIC("graph root ", root, " out of range (n=", g.n, ")");
}

GraphAppBase::GraphAppBase(GraphAppParams p,
                           std::shared_ptr<const GraphInput> in)
    : p_(std::move(p)), in_(std::move(in)), g_(in_->g), root_(in_->root)
{
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
