"""Multi-horizon collision-risk estimation from episodic rollouts.

A bank of prediction heads shares one backbone; head i outputs the
probability that a collision happens within the next i control steps.
Targets come from truncated lambda returns over recorded episodes, exact
dynamic-programming tables serve as oracles on small chain worlds, and a
kinematic corridor world provides the scaled-up benchmark. The modules
are the API: import each name from the module that defines it.
"""

__version__ = "0.1.0"
