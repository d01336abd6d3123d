// Fixture: a layer TU including the conv_scatter kernel header directly,
// which would compile the kernel at this TU's baseline ISA.
#include <cstddef>

#include "util/conv_scatter_kernel.h"  // line 5: not a backend TU
