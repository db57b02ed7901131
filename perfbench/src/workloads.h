#pragma once

// The three workloads. Each fills a Report with every end-to-end metric
// (untraced run) or with the per-layer metrics of the layers it drives
// (traced run). In a traced run the named workload is `primary` and runs at
// full length; the other two then run briefly, so that every layer is
// measured in every traced run.

#include "common.h"

namespace perfbench {

void RunGenerate(const Args& args, bool primary, Report* report);
void RunInteract(const Args& args, bool primary, Report* report);
void RunJobs(const Args& args, bool primary, Report* report);

}  // namespace perfbench
