// Fixture: tenancy.legacy-config must fire on every code mention of the
// removed MultiTenantConfig bundle in the source trees.
// Never compiled; read as text by CcsimLintTest.
#include "concurrent/MultiTenantSimulator.h"

ccsim::MultiTenantConfig makeLegacyConfig() {
  ccsim::MultiTenantConfig Config;
  return Config;
}
