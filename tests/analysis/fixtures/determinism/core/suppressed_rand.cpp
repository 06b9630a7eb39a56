#include <cstdlib>
// rush-analyze: allow(naked-rand) fixture: marker on the line above works
int roll() { return rand() % 6; }
int roll2() { return rand() % 8; }  // rush-analyze: allow(naked-rand) trailing marker works
