// Fixture: includes from the layers below sim must NOT trip
// layering.sim-includes-concurrent, and neither must a commented-out
// include or a string naming a concurrent/ header.
// Never compiled; read as text by CcsimLintTest.
#include "core/SharedCacheEngine.h"
#include "sim/Simulator.h"
#include "support/ThreadPool.h"
// #include "concurrent/ThreadPool.h" moved to support/ThreadPool.h.

const char *OldHome = "#include \"concurrent/ThreadPool.h\"";
