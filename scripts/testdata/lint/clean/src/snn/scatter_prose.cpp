// Fixture: prose about the kernel headers is not an include. Layers dispatch
// instead of writing
//   #include "util/conv_scatter_kernel.h"
//   #include "util/spike_epilogue_kernel.h"
// and a string naming one stays silent too.
const char* kHeader = "#include \"util/conv_scatter_kernel.h\"";
const char* kEpilogueHeader = "#include \"util/spike_epilogue_kernel.h\"";
