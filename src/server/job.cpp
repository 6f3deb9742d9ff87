#include "server/job.hpp"

namespace elv::srv {

const char *
job_state_name(JobState state)
{
    switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Completed: return "completed";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
    case JobState::Rejected: return "rejected";
    }
    return "unknown";
}

std::optional<JobState>
job_state_from_name(const std::string &name)
{
    for (const JobState state :
         {JobState::Queued, JobState::Running, JobState::Completed,
          JobState::Failed, JobState::Cancelled, JobState::Rejected})
        if (name == job_state_name(state))
            return state;
    return std::nullopt;
}

bool
job_state_terminal(JobState state)
{
    return state == JobState::Completed || state == JobState::Failed ||
           state == JobState::Cancelled || state == JobState::Rejected;
}

} // namespace elv::srv
