// Fixture: a layer TU including the spike_epilogue kernel header directly,
// which would compile the epilogue at this TU's baseline ISA.
#include <cstddef>

#include "util/spike_epilogue_kernel.h"  // line 5: not a backend TU
