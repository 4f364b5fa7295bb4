// Fixture: clean hot-path bodies — TouchData/TouchInstruction must produce nothing.
// TouchDataRun is deliberately missing so HOT-MISSING-025 proves the rule table cannot rot
// silently.
struct FixtureMachine {
  unsigned TouchData(unsigned ea) const { return ea + 1; }
  unsigned TouchInstruction(unsigned ea) const { return ea + 2; }
};
