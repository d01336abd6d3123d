// Fixture: prose about steady_clock or serve::ServeClock in decision code is
// fine — only real clock reads are banned under src/core/ and src/snn/.
#include <string>

std::string why() { return "LivePool reads no steady_clock and no ServeClock"; }
