// The float and double instances of the Householder cores (see the
// CAQR_BLOCK_OPS_INSTANCES note in block_ops.hpp).

#include "kernels/block_ops.hpp"

namespace caqr::kernels {

CAQR_BLOCK_OPS_INSTANCES(, float)
CAQR_BLOCK_OPS_INSTANCES(, double)

}  // namespace caqr::kernels
