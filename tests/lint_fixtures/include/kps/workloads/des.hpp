// Fixture: config-sync — every member documented.
#pragma once

struct DesParams {
  double window = 8.0;
};
