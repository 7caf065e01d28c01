// Fixture: layering.sim-includes-concurrent must fire on every include of
// a concurrent/ header from src/sim, in either spelling -- concurrent
// links sim, so the reverse edge would be a layering cycle.
// Never compiled; read as text by CcsimLintTest.
#include "concurrent/ThreadPool.h"
#  include <concurrent/SharedEngineRunner.h>
#include "sim/Simulator.h"
