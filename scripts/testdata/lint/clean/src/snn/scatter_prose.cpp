// Fixture: prose about the kernel header is not an include. Layers dispatch
// instead of writing
//   #include "util/conv_scatter_kernel.h"
// and a string naming it stays silent too.
const char* kHeader = "#include \"util/conv_scatter_kernel.h\"";
