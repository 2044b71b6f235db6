// Fixture: config-sync — one documented knob, one undocumented.
#pragma once

struct StorageConfig {
  int k_max = 1;
  bool mystery_knob = false;
  int twice() const { return k_max * 2; }  // member function, not a knob
};
