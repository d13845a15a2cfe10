#include "ckpt/driver.hh"

#include "sim/logging.hh"

namespace alewife::ckpt {

Tick
ForkPointDriver::drive(Machine &m, const Machine::ProgramFactory &f)
{
    snap_.reset();
    m.start(f);
    if (m.stepUntilEvents(forkEvents_))
        snap_ = save(m);
    while (m.stepOne()) {
    }
    return m.finishRun();
}

Tick
WarmStartDriver::drive(Machine &m, const Machine::ProgramFactory &f)
{
    ResumeResult r = resumeWarm(m, f, snap_, variant_);
    if (!r.ok)
        ALEWIFE_FATAL(r.error);
    while (m.stepOne()) {
    }
    return m.finishRun();
}

} // namespace alewife::ckpt
